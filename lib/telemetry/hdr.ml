(* Log-bucketed histogram in the HdrHistogram style: exponential buckets,
   each split into 2^precision linear sub-buckets, so any recorded value
   is off by at most a factor of 2^-precision from its bucket's
   representative. Counts are plain ints in a growable array; merging two
   histograms of equal precision is element-wise addition, which makes
   quantiles mergeable across replicas and experiments. *)

type t = {
  precision : int;  (* sub-bucket bits; relative error <= 2^-precision *)
  sub_half : int;  (* 1 lsl precision *)
  sub_count : int;  (* 2 * sub_half: values below this are exact *)
  mutable counts : int array;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable sum : float;
}

let default_precision = 7

let create ?(precision = default_precision) () =
  if precision < 1 || precision > 20 then
    invalid_arg "Hdr.create: precision must be in [1, 20]";
  let sub_half = 1 lsl precision in
  {
    precision;
    sub_half;
    sub_count = 2 * sub_half;
    counts = Array.make (4 * sub_half) 0;
    total = 0;
    min_v = max_int;
    max_v = -1;
    sum = 0.0;
  }

let precision t = t.precision
let count t = t.total
let is_empty t = t.total = 0
let sum t = t.sum
let min_value t = if t.total = 0 then None else Some t.min_v
let max_value t = if t.total = 0 then None else Some t.max_v

(* Position of the highest set bit of [x] (x >= 1). *)
let msb x =
  let r = ref 0 and x = ref x in
  while !x > 1 do
    incr r;
    x := !x lsr 1
  done;
  !r

(* How far [v] must be shifted right for its sub-bucket index to fit in
   [sub_half, sub_count); 0 for values that are recorded exactly. *)
let shift_of t v = msb (v lor (t.sub_count - 1)) - t.precision

let index_of t v =
  let s = shift_of t v in
  (s * t.sub_half) + (v lsr s)

(* Lowest and highest value mapping to counts slot [i]. *)
let bounds_of_index t i =
  if i < t.sub_count then (i, i)
  else begin
    let s = (i / t.sub_half) - 1 in
    let sub = i - (s * t.sub_half) in
    let lo = sub lsl s in
    (lo, lo + (1 lsl s) - 1)
  end

let ensure_capacity t i =
  if i >= Array.length t.counts then begin
    let cap = ref (Array.length t.counts) in
    while i >= !cap do
      cap := !cap * 2
    done;
    let n = Array.make !cap 0 in
    Array.blit t.counts 0 n 0 (Array.length t.counts);
    t.counts <- n
  end

let record ?(n = 1) t v =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index_of t v in
    ensure_capacity t i;
    t.counts.(i) <- t.counts.(i) + n;
    t.total <- t.total + n;
    t.sum <- t.sum +. (float_of_int v *. float_of_int n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let quantile t q =
  if t.total = 0 || q < 0.0 || q > 1.0 then None
  else begin
    let target =
      let r = int_of_float (ceil ((q *. float_of_int t.total) -. 1e-9)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let cum = ref 0 and i = ref 0 and res = ref t.max_v in
    (try
       while true do
         cum := !cum + t.counts.(!i);
         if !cum >= target then begin
           let _, hi = bounds_of_index t !i in
           res := hi;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    let v = !res in
    Some (if v > t.max_v then t.max_v else if v < t.min_v then t.min_v else v)
  end

let merge ~into src =
  if into.precision <> src.precision then
    invalid_arg "Hdr.merge: precision mismatch";
  ensure_capacity into (Array.length src.counts - 1);
  Array.iteri (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.total <- into.total + src.total;
  into.sum <- into.sum +. src.sum;
  if src.total > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let copy t = { t with counts = Array.copy t.counts }

(* [diff ~since t] with both snapshots of the same monotonically-recorded
   histogram: the distribution of values recorded after [since] was taken.
   Min/max of the window are not recoverable from the cumulative snapshots,
   so they come from the diffed buckets' bounds — within the usual bucket
   error. *)
let diff ~since t =
  if t.precision <> since.precision then invalid_arg "Hdr.diff: precision mismatch";
  let d = create ~precision:t.precision () in
  ensure_capacity d (Array.length t.counts - 1);
  let total = ref 0 in
  Array.iteri
    (fun i c ->
      let before = if i < Array.length since.counts then since.counts.(i) else 0 in
      let dc = c - before in
      if dc > 0 then begin
        d.counts.(i) <- dc;
        total := !total + dc;
        let lo, hi = bounds_of_index t i in
        if lo < d.min_v then d.min_v <- lo;
        if hi > d.max_v then d.max_v <- hi
      end)
    t.counts;
  d.total <- !total;
  d.sum <- (if !total = 0 then 0.0 else t.sum -. since.sum);
  d

let iter_buckets t f =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bounds_of_index t i in
        f ~lo ~hi ~count:c
      end)
    t.counts

let buckets t =
  let acc = ref [] in
  iter_buckets t (fun ~lo ~hi ~count -> acc := (lo, hi, count) :: !acc);
  List.rev !acc

let pp ppf t =
  if t.total = 0 then Fmt.string ppf "<empty>"
  else
    let q p = match quantile t p with Some v -> v | None -> 0 in
    Fmt.pf ppf "n=%d min=%d p50=%d p99=%d max=%d" t.total t.min_v (q 0.5) (q 0.99)
      t.max_v
