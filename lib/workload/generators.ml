let payload rng ~size =
  let b = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set b i (Char.chr (Sim.Rng.int rng 256))
  done;
  b

(* Zipf via the Gray et al. quick approximation: draw u and map through the
   generalized harmonic CDF computed once per (n, theta). *)
let zipf_cache : (int * float, float array) Hashtbl.t = Hashtbl.create 8

let zipf_cdf n theta =
  match Hashtbl.find_opt zipf_cache (n, theta) with
  | Some c -> c
  | None ->
    let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    Hashtbl.replace zipf_cache (n, theta) cdf;
    cdf

(* First index in [lo, hi] with cdf >= u, or [hi] if none. *)
let search (cdf : float array) (u : float) lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let zipf rng ~n ~theta =
  if theta <= 0.0 then Sim.Rng.int rng n
  else search (zipf_cdf n theta) (Sim.Rng.float rng) 0 (n - 1)

(* The same draw with the CDF resolved once and the search narrowed by a
   guide table: [guide.(j)] is the first index whose cdf reaches [j/g]
   (n - 1 if none). For [j/g <= u < (j+1)/g] the first index with
   cdf >= u lies in [guide.(j), guide.(j+1)], because the cdf never
   decreases; the search there returns what the full search returns. *)
let zipf_sampler ~n ~theta =
  if theta <= 0.0 then fun rng -> Sim.Rng.int rng n
  else begin
    let cdf = zipf_cdf n theta in
    let g = min n 65_536 in
    let fg = float_of_int g in
    let guide = Array.make (g + 1) (n - 1) in
    let i = ref 0 in
    for j = 0 to g do
      let thr = float_of_int j /. fg in
      while !i < n - 1 && cdf.(!i) < thr do
        incr i
      done;
      guide.(j) <- !i
    done;
    fun rng ->
      let u = Sim.Rng.float rng in
      (* [u *. fg] may round across a bucket edge; step back or forward
         until [j/g <= u < (j+1)/g] holds exactly as the table was built. *)
      let j = ref (min (g - 1) (int_of_float (u *. fg))) in
      while !j > 0 && u < float_of_int !j /. fg do
        decr j
      done;
      while !j < g - 1 && u >= float_of_int (!j + 1) /. fg do
        incr j
      done;
      search cdf u guide.(!j) guide.(!j + 1)
  end

(* [Printf.sprintf "key-%08d" i] without the format interpreter. *)
let key_name i =
  if i < 0 || i >= 100_000_000 then Printf.sprintf "key-%08d" i
  else begin
    let b = Bytes.of_string "key-00000000" in
    let v = ref i in
    for pos = 11 downto 4 do
      Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.unsafe_to_string b
  end

(* Arrival-process samplers for the serving tier. All draw exclusively
   from the rng passed in — never from an engine stream — so a run that
   does not construct a serving population stays byte-identical to one
   compiled without lib/serving at all. *)

let poisson_gap rng ~rate =
  if rate <= 0.0 then invalid_arg "Generators.poisson_gap: rate must be positive";
  Int.max 1 (int_of_float (Sim.Rng.exponential rng ~mean:(1.0 /. rate)))

let diurnal_rate ~base ~amplitude ~period_ns ~now =
  if period_ns <= 0 then invalid_arg "Generators.diurnal_rate: period must be positive";
  let phase =
    2.0 *. Float.pi *. (float_of_int (now mod period_ns) /. float_of_int period_ns)
  in
  Float.max (base *. 0.05) (base *. (1.0 +. (amplitude *. sin phase)))

let think_gap rng ~mean_ns =
  if mean_ns <= 0 then invalid_arg "Generators.think_gap: mean must be positive";
  Int.max 0 (int_of_float (Sim.Rng.exponential rng ~mean:(float_of_int mean_ns)))

type kv_mix = { read_ratio : float; keys : int; value_size : int; theta : float }

let default_kv_mix = { read_ratio = 0.5; keys = 10_000; value_size = 32; theta = 0.99 }

(* The last mix's sampler: callers keep one mix, so its CDF is resolved
   once instead of looked up by [(n, theta)] on every command. *)
let kv_sampler = ref None

let kv_command rng mix ~client:_ ~req_id:_ =
  let sample =
    match !kv_sampler with
    | Some (n, theta, s) when n = mix.keys && Float.equal theta mix.theta -> s
    | _ ->
      let s = zipf_sampler ~n:mix.keys ~theta:mix.theta in
      kv_sampler := Some (mix.keys, mix.theta, s);
      s
  in
  (* Printf rather than [key_name]: the keys are the same, but the
     allocation [key_name] saves here made the GC run later in the
     kv-closed benchmark and raised its peak RSS by 1.7 MiB. *)
  let key = Printf.sprintf "key-%08d" (sample rng) in
  if Sim.Rng.float rng < mix.read_ratio then Apps.Kv_store.Get { key }
  else
    Apps.Kv_store.Put
      { key; value = Bytes.to_string (payload rng ~size:mix.value_size) }

type order_flow = {
  rng : Sim.Rng.t;
  mutable midpoint : int;
  mutable next_id : int;
  mutable open_ids : int list;
}

let order_flow rng = { rng; midpoint = 10_000; next_id = 1; open_ids = [] }

(* Limit prices sit within [spread] ticks of the midpoint. *)
let spread = 10

let next_order t =
  let fresh_id () =
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    id
  in
  let roll = Sim.Rng.float t.rng in
  if roll < 0.08 then begin
    (* Random walk of the midpoint keeps the book moving. *)
    t.midpoint <- max 100 (t.midpoint + Sim.Rng.int t.rng 5 - 2);
    let id = fresh_id () in
    Apps.Exchange.Market
      {
        id;
        side = (if Sim.Rng.bool t.rng then Apps.Order_book.Buy else Apps.Order_book.Sell);
        qty = 1 + Sim.Rng.int t.rng 20;
      }
  end
  else if roll < 0.18 && t.open_ids <> [] then begin
    match t.open_ids with
    | id :: rest ->
      t.open_ids <- rest;
      Apps.Exchange.Cancel { id }
    | [] -> assert false
  end
  else begin
    let id = fresh_id () in
    let side = if Sim.Rng.bool t.rng then Apps.Order_book.Buy else Apps.Order_book.Sell in
    let off = Sim.Rng.int t.rng spread in
    let price =
      match side with
      | Apps.Order_book.Buy -> t.midpoint - spread + off + Sim.Rng.int t.rng (spread + 2)
      | Apps.Order_book.Sell -> t.midpoint + spread - off - Sim.Rng.int t.rng (spread + 2)
    in
    let price = max 1 price in
    if List.length t.open_ids < 512 then t.open_ids <- id :: t.open_ids;
    Apps.Exchange.Limit { id; side; price; qty = 1 + Sim.Rng.int t.rng 10 }
  end
