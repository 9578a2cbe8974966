(* Zero-on-demand paged memory. A region is an array of page pointers
   that all start at one shared zero page; the first store into a page
   swaps in fresh bytes of the page's own length (never more than the
   region holds, so a 64-byte region costs 64 bytes once written). The
   zero page is never written: every store goes through [wpage], which
   materializes first. *)

let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

let create size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) zero_page }

let size t = t.size

let pages_materialized t =
  Array.fold_left (fun n p -> if p == zero_page then n else n + 1) 0 t.pages

let[@inline] check t off len =
  if off < 0 || len < 0 || off > t.size - len then invalid_arg "Mem: access out of bounds"

let wpage t i =
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let p = Bytes.make (min page_size (t.size - (i lsl page_bits))) '\000' in
    t.pages.(i) <- p;
    p
  end

let get_char t off =
  check t off 1;
  Bytes.unsafe_get t.pages.(off lsr page_bits) (off land page_mask)

let set_char t off c =
  check t off 1;
  Bytes.unsafe_set (wpage t (off lsr page_bits)) (off land page_mask) c

(* Byte at a time: the fallback for a fixed-width value that straddles
   two pages. *)
let[@inline] byte t off =
  Char.code (Bytes.unsafe_get t.pages.(off lsr page_bits) (off land page_mask))

let[@inline] set_byte t off v =
  Bytes.unsafe_set (wpage t (off lsr page_bits)) (off land page_mask)
    (Char.unsafe_chr (v land 0xff))

let get_i64 t off =
  check t off 8;
  let o = off land page_mask in
  if o <= page_size - 8 then Bytes.get_int64_le t.pages.(off lsr page_bits) o
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
  if o <= page_size - 8 then Bytes.set_int64_le (wpage t (off lsr page_bits)) o v
  else
    for i = 0 to 7 do
      set_byte t (off + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let get_i32 t off =
  check t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then Bytes.get_int32_le t.pages.(off lsr page_bits) o
  else
    Int32.of_int
      (byte t off lor (byte t (off + 1) lsl 8) lor (byte t (off + 2) lsl 16)
      lor (byte t (off + 3) lsl 24))

let set_i32 t off v =
  check t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then Bytes.set_int32_le (wpage t (off lsr page_bits)) o v
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
      Bytes.blit src s (wpage t (d lsr page_bits)) o k;
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
      Bytes.blit t.pages.(s lsr page_bits) o b d k;
      go (s + k) (d + k) (n - k)
    end
  in
  go off 0 len;
  b

(* Zeros over a whole page hand it back to the shared zero page, so a
   region that is written, then cleared (a recycled log range), costs
   nothing again until its next store. *)
let fill t ~off ~len c =
  check t off len;
  let rec go d n =
    if n > 0 then begin
      let i = d lsr page_bits and o = d land page_mask in
      let k = min n (page_size - o) in
      let p = t.pages.(i) in
      if c <> '\000' then Bytes.fill (wpage t i) o k c
      else if p == zero_page then ()
      else if o = 0 && k = Bytes.length p then t.pages.(i) <- zero_page
      else Bytes.fill p o k c;
      go (d + k) (n - k)
    end
  in
  go off len
