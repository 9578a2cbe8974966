(* Zero-on-demand paged memory, two levels deep, with the page bytes in a
   per-region slab. A region is an array of directories, one per 64 KiB,
   each an [int array] of 256 page ids; id 0 is the shared zero page.
   Every directory starts as one shared zero directory of zero ids. The
   first store into a page swaps in a directory of its own (cut to the
   pages the region has left) and then takes an id from the slab. Loads
   of id 0 read zeros without touching any bytes. The zero directory is
   never written: every store goes through [wid], which materializes
   first, and zero fills hand whole pages and directories back.

   Page bytes live in the region's chunks: [Bytes] of [chunk_pages]
   pages each (4 KiB, so allocated directly on the major heap), cut to
   the pages the region has, so a 64-byte region costs one page once
   written. Page [id] is page [(id - 1) land chunk_mask] of chunk
   [(id - 1) lsr chunk_bits]. Ids are handed out in order and never
   exceed the region's page count; a page returned by a zero fill goes
   on a free stack and is zeroed when it is handed out again. Chunks
   hold no pointers and directories hold only ints, so a store into a
   directory of its own adds neither a young object nor a
   remembered-set entry, and the GC never copies or scans page bytes. *)

let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let dir_bits = 16
let dir_size = 1 lsl dir_bits
let dir_mask = dir_size - 1
let dir_pages = dir_size / page_size
let chunk_bits = 4
let chunk_pages = 1 lsl chunk_bits
let chunk_mask = chunk_pages - 1
let zero_dir = Array.make dir_pages 0

type t = {
  size : int;
  dirs : int array array;
  mutable chunks : Bytes.t array;
  mutable used : int; (* ids handed out so far: the highest id *)
  mutable free : int array; (* returned ids, a stack of [nfree] *)
  mutable nfree : int;
}

let create size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  {
    size;
    dirs = Array.make ((size + dir_mask) lsr dir_bits) zero_dir;
    chunks = [||];
    used = 0;
    free = [||];
    nfree = 0;
  }

let size t = t.size
let pages_materialized t = t.used - t.nfree

let[@inline] check t off len =
  if off < 0 || len < 0 || off > t.size - len then invalid_arg "Mem: access out of bounds"

(* Index of byte [off]'s page within its directory. *)
let[@inline] page_in_dir off = (off lsr page_bits) land (dir_pages - 1)

(* The id of the page holding byte [off], zero or not. Callers have
   bounds-checked [off], and every directory, even the shared one,
   reaches past it. *)
let[@inline] page_id t off =
  Array.unsafe_get (Array.unsafe_get t.dirs (off lsr dir_bits)) (page_in_dir off)

(* The chunk holding page [id] (> 0), and the position of byte [off]
   within it. *)
let[@inline] chunk t id = Array.unsafe_get t.chunks ((id - 1) lsr chunk_bits)
let[@inline] pos id off = (((id - 1) land chunk_mask) lsl page_bits) lor (off land page_mask)

(* A page of the slab for a store: a returned one, zeroed, or the next
   never-used one, growing the slab by a chunk when it is full. *)
let take t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    let id = Array.unsafe_get t.free t.nfree in
    Bytes.fill (chunk t id) (pos id 0) page_size '\000';
    id
  end
  else begin
    let n = t.used in
    if n land chunk_mask = 0 then begin
      let k = n lsr chunk_bits in
      if k = Array.length t.chunks then begin
        let a = Array.make (max 1 (2 * k)) Bytes.empty in
        Array.blit t.chunks 0 a 0 k;
        t.chunks <- a
      end;
      let pages = (t.size + page_mask) lsr page_bits in
      t.chunks.(k) <- Bytes.make (min chunk_pages (pages - n) * page_size) '\000'
    end;
    t.used <- n + 1;
    n + 1
  end

let release t id =
  if t.nfree = Array.length t.free then begin
    let a = Array.make (max chunk_pages (2 * t.nfree)) 0 in
    Array.blit t.free 0 a 0 t.nfree;
    t.free <- a
  end;
  Array.unsafe_set t.free t.nfree id;
  t.nfree <- t.nfree + 1

(* The id of the page holding byte [off], materialized. *)
let wid t off =
  let di = off lsr dir_bits in
  let d = Array.unsafe_get t.dirs di in
  let d =
    if d != zero_dir then d
    else begin
      let pages = (t.size - (di lsl dir_bits) + page_mask) lsr page_bits in
      let d = Array.make (min dir_pages pages) 0 in
      t.dirs.(di) <- d;
      d
    end
  in
  let pi = page_in_dir off in
  let id = Array.unsafe_get d pi in
  if id <> 0 then id
  else begin
    let id = take t in
    d.(pi) <- id;
    id
  end

let get_char t off =
  check t off 1;
  let id = page_id t off in
  if id = 0 then '\000' else Bytes.unsafe_get (chunk t id) (pos id off)

let set_char t off c =
  check t off 1;
  let id = wid t off in
  Bytes.unsafe_set (chunk t id) (pos id off) c

(* Byte at a time: the fallback for a fixed-width value that straddles
   two pages. *)
let[@inline] byte t off =
  let id = page_id t off in
  if id = 0 then 0 else Char.code (Bytes.unsafe_get (chunk t id) (pos id off))

let[@inline] set_byte t off v =
  let id = wid t off in
  Bytes.unsafe_set (chunk t id) (pos id off) (Char.unsafe_chr (v land 0xff))

let get_i64 t off =
  check t off 8;
  if off land page_mask <= page_size - 8 then begin
    let id = page_id t off in
    if id = 0 then 0L else Bytes.get_int64_le (chunk t id) (pos id off)
  end
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t (off + i)))
    done;
    !v
  end

let set_i64 t off v =
  check t off 8;
  if off land page_mask <= page_size - 8 then begin
    let id = wid t off in
    Bytes.set_int64_le (chunk t id) (pos id off) v
  end
  else
    for i = 0 to 7 do
      set_byte t (off + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

(* The same little-endian word as [get_i64]/[set_i64], as an unboxed
   [int]: the top bit is dropped on a load, so it holds only counters
   that fit in 62 bits. *)
let get_int t off =
  check t off 8;
  if off land page_mask <= page_size - 8 then begin
    let id = page_id t off in
    if id = 0 then 0 else Int64.to_int (Bytes.get_int64_le (chunk t id) (pos id off))
  end
  else Int64.to_int (get_i64 t off)

let set_int t off v =
  check t off 8;
  if off land page_mask <= page_size - 8 then begin
    let id = wid t off in
    Bytes.set_int64_le (chunk t id) (pos id off) (Int64.of_int v)
  end
  else set_i64 t off (Int64.of_int v)

let get_i32 t off =
  check t off 4;
  if off land page_mask <= page_size - 4 then begin
    let id = page_id t off in
    if id = 0 then 0l else Bytes.get_int32_le (chunk t id) (pos id off)
  end
  else
    Int32.of_int
      (byte t off lor (byte t (off + 1) lsl 8) lor (byte t (off + 2) lsl 16)
      lor (byte t (off + 3) lsl 24))

let set_i32 t off v =
  check t off 4;
  if off land page_mask <= page_size - 4 then begin
    let id = wid t off in
    Bytes.set_int32_le (chunk t id) (pos id off) v
  end
  else
    for i = 0 to 3 do
      set_byte t (off + i) (Int32.to_int (Int32.shift_right_logical v (8 * i)))
    done

(* Walk [off, off+len) one page-bounded chunk at a time. *)
let blit_from_bytes src src_off t off len =
  if src_off < 0 || len < 0 || src_off > Bytes.length src - len then
    invalid_arg "Mem.blit_from_bytes: source out of bounds";
  check t off len;
  let rec go s d n =
    if n > 0 then begin
      let k = Int.min n (page_size - (d land page_mask)) in
      let id = wid t d in
      Bytes.blit src s (chunk t id) (pos id d) k;
      go (s + k) (d + k) (n - k)
    end
  in
  go src_off off len

let sub t ~off ~len =
  check t off len;
  let b = Bytes.create len in
  let rec go s d n =
    if n > 0 then begin
      let k = Int.min n (page_size - (s land page_mask)) in
      let id = page_id t s in
      if id = 0 then Bytes.fill b d k '\000' else Bytes.blit (chunk t id) (pos id s) b d k;
      go (s + k) (d + k) (n - k)
    end
  in
  go off 0 len;
  b

(* Zeros over a whole page hand its id back to the slab's free stack,
   and zeros over a whole directory hand back every page in it and the
   directory itself, so a region that is written, then cleared (a
   recycled log range), takes the pages for its next stores from the
   free stack instead of growing the slab. A zero fill steps over a
   zero directory in one move. *)
let fill t ~off ~len c =
  check t off len;
  let rec go d n =
    if n > 0 then begin
      let di = d lsr dir_bits in
      let dir = Array.unsafe_get t.dirs di in
      let in_dir = Int.min n (dir_size - (d land dir_mask)) in
      let whole_dir = d land dir_mask = 0 && in_dir = Int.min dir_size (t.size - d) in
      if c = '\000' && (dir == zero_dir || whole_dir) then begin
        if dir != zero_dir then begin
          for pi = 0 to Array.length dir - 1 do
            let id = Array.unsafe_get dir pi in
            if id <> 0 then release t id
          done;
          t.dirs.(di) <- zero_dir
        end;
        go (d + in_dir) (n - in_dir)
      end
      else begin
        let o = d land page_mask in
        let k = Int.min n (page_size - o) in
        (if c <> '\000' then begin
           let id = wid t d in
           Bytes.fill (chunk t id) (pos id d) k c
         end
         else
           let pi = page_in_dir d in
           let id = dir.(pi) in
           if id = 0 then ()
           else if o = 0 && k = Int.min page_size (t.size - d) then begin
             dir.(pi) <- 0;
             release t id
           end
           else Bytes.fill (chunk t id) (pos id d) k c);
        go (d + k) (n - k)
      end
    end
  in
  go off len
