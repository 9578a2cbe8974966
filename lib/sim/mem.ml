(* Zero-on-demand paged memory, two levels deep. A region is an array
   of directories, one per 64 KiB, each an array of 256 pointers to
   256-byte pages. Every directory starts as one shared zero directory
   whose entries are all one shared zero page. The first store into a
   page swaps in a directory of its own (cut to the pages the region
   has left) and then fresh bytes of the page's own length (never more
   than the region holds, so a 64-byte region costs 64 bytes once
   written). Loads read through the zero objects. Neither is ever
   written: every store goes through [wpage], which materializes first,
   and zero fills hand whole pages and directories back to them.

   A directory is 256 words and a page 32, so both are allocated on
   the minor heap (at most [Max_young_wosize] = 256 words); a log entry
   of a few dozen bytes costs one or two small pages. *)

let page_bits = 8
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let dir_bits = 16
let dir_size = 1 lsl dir_bits
let dir_mask = dir_size - 1
let dir_pages = dir_size / page_size
let zero_page = Bytes.make page_size '\000'
let zero_dir = Array.make dir_pages zero_page

type t = { size : int; dirs : Bytes.t array array }

let create size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  { size; dirs = Array.make ((size + dir_mask) lsr dir_bits) zero_dir }

let size t = t.size

let pages_materialized t =
  Array.fold_left
    (fun n d ->
      if d == zero_dir then n
      else Array.fold_left (fun n p -> if p == zero_page then n else n + 1) n d)
    0 t.dirs

let[@inline] check t off len =
  if off < 0 || len < 0 || off > t.size - len then invalid_arg "Mem: access out of bounds"

(* Index of byte [off]'s page within its directory. *)
let[@inline] page_in_dir off = (off lsr page_bits) land (dir_pages - 1)

(* The page holding byte [off], zero or not. Callers have bounds-checked
   [off], and every directory, even the shared one, reaches past it. *)
let[@inline] page t off =
  Array.unsafe_get (Array.unsafe_get t.dirs (off lsr dir_bits)) (page_in_dir off)

(* The page holding byte [off], materialized. *)
let wpage t off =
  let di = off lsr dir_bits in
  let d = Array.unsafe_get t.dirs di in
  let d =
    if d != zero_dir then d
    else begin
      let pages = (t.size - (di lsl dir_bits) + page_mask) lsr page_bits in
      let d = Array.make (min dir_pages pages) zero_page in
      t.dirs.(di) <- d;
      d
    end
  in
  let pi = page_in_dir off in
  let p = Array.unsafe_get d pi in
  if p != zero_page then p
  else begin
    let p = Bytes.make (min page_size (t.size - (off land lnot page_mask))) '\000' in
    d.(pi) <- p;
    p
  end

let get_char t off =
  check t off 1;
  Bytes.unsafe_get (page t off) (off land page_mask)

let set_char t off c =
  check t off 1;
  Bytes.unsafe_set (wpage t off) (off land page_mask) c

(* Byte at a time: the fallback for a fixed-width value that straddles
   two pages. *)
let[@inline] byte t off = Char.code (Bytes.unsafe_get (page t off) (off land page_mask))

let[@inline] set_byte t off v =
  Bytes.unsafe_set (wpage t off) (off land page_mask) (Char.unsafe_chr (v land 0xff))

let get_i64 t off =
  check t off 8;
  let o = off land page_mask in
  if o <= page_size - 8 then Bytes.get_int64_le (page t off) o
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte t (off + i)))
    done;
    !v
  end

let set_i64 t off v =
  check t off 8;
  let o = off land page_mask in
  if o <= page_size - 8 then Bytes.set_int64_le (wpage t off) o v
  else
    for i = 0 to 7 do
      set_byte t (off + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let get_i32 t off =
  check t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then Bytes.get_int32_le (page t off) o
  else
    Int32.of_int
      (byte t off lor (byte t (off + 1) lsl 8) lor (byte t (off + 2) lsl 16)
      lor (byte t (off + 3) lsl 24))

let set_i32 t off v =
  check t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then Bytes.set_int32_le (wpage t off) o v
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
      let o = d land page_mask in
      let k = min n (page_size - o) in
      Bytes.blit src s (wpage t d) o k;
      go (s + k) (d + k) (n - k)
    end
  in
  go src_off off len

let sub t ~off ~len =
  check t off len;
  let b = Bytes.create len in
  let rec go s d n =
    if n > 0 then begin
      let o = s land page_mask in
      let k = min n (page_size - o) in
      Bytes.blit (page t s) o b d k;
      go (s + k) (d + k) (n - k)
    end
  in
  go off 0 len;
  b

(* Zeros over a whole page hand it back to the shared zero page, and
   zeros over a whole directory hand that back to the zero directory, so
   a region that is written, then cleared (a recycled log range), costs
   nothing again until its next store. A zero fill steps over a zero
   directory in one move. *)
let fill t ~off ~len c =
  check t off len;
  let rec go d n =
    if n > 0 then begin
      let di = d lsr dir_bits in
      let dir = Array.unsafe_get t.dirs di in
      let in_dir = min n (dir_size - (d land dir_mask)) in
      let whole_dir = d land dir_mask = 0 && in_dir = min dir_size (t.size - d) in
      if c = '\000' && (dir == zero_dir || whole_dir) then begin
        t.dirs.(di) <- zero_dir;
        go (d + in_dir) (n - in_dir)
      end
      else begin
        let o = d land page_mask in
        let k = min n (page_size - o) in
        (if c <> '\000' then Bytes.fill (wpage t d) o k c
         else
           let pi = page_in_dir d in
           let p = dir.(pi) in
           if p == zero_page then ()
           else if o = 0 && k = Bytes.length p then dir.(pi) <- zero_page
           else Bytes.fill p o k c);
        go (d + k) (n - k)
      end
    end
  in
  go off len
