(* The splitmix state and the cached Box-Muller spare live unboxed in
   one 16-byte buffer ([0, 8): state, [8, 16): the spare's bits), so a
   draw stores no boxed [int64] or [float option]: [int], [bool] and the
   mixing inside every draw allocate nothing. *)
type t = { buf : Bytes.t; mutable has_spare : bool }

let create seed =
  let buf = Bytes.create 16 in
  Bytes.set_int64_le buf 0 seed;
  Bytes.set_int64_le buf 8 0L;
  { buf; has_spare = false }

(* splitmix64 step: state += golden gamma; output mixed. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t.buf 0) golden_gamma in
  Bytes.set_int64_le t.buf 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = create (next t)

(* Use the top 53 bits for a uniform double in [0, 1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative as an OCaml int;
     modulo bias is negligible for bound << 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* Uniform in (0, 1): redraw the (vanishingly rare) values that would
   make a logarithm or a reciprocal blow up. *)
let[@inline] nonzero_float t =
  let u = ref (unit_float t) in
  while !u <= 1e-300 do
    u := unit_float t
  done;
  !u

let gaussian t =
  if t.has_spare then begin
    t.has_spare <- false;
    Int64.float_of_bits (Bytes.get_int64_le t.buf 8)
  end
  else begin
    (* Box-Muller; guard against log 0. *)
    let u1 = nonzero_float t in
    let u2 = unit_float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    Bytes.set_int64_le t.buf 8 (Int64.bits_of_float (r *. sin theta));
    t.has_spare <- true;
    r *. cos theta
  end

let exponential t ~mean = -.mean *. log (nonzero_float t)
let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))
let pareto t ~scale ~shape = scale /. (nonzero_float t ** (1.0 /. shape))
