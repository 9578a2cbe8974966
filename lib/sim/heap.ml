(* Binary min-heap over (key, seq) with the payload kept out of the
   comparison path. Entries live in parallel arrays — an int array per
   ordering component and one [Obj.t] array for payloads — so a
   push/pop cycle allocates nothing (the boxed { key; seq; value }
   record of the original implementation cost four minor words per
   event on the engine hot path).

   The [Obj.t] payload array is created with an immediate dummy, so it
   is never a flat float array and stores to it are plain pointer (or
   immediate) writes; [push]/[pop] are the only readers and writers and
   always go through [Obj.repr]/[Obj.obj] at the boundary of the typed
   interface. Vacated slots are overwritten with the dummy immediately
   — a popped payload (an event closure and everything it captures)
   must not stay reachable from the heap's backing store. *)

let dummy : Obj.t = Obj.repr 0

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.keys in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nkeys = Array.make ncap 0 in
  let nseqs = Array.make ncap 0 in
  let nvals = Array.make ncap dummy in
  Array.blit t.keys 0 nkeys 0 t.size;
  Array.blit t.seqs 0 nseqs 0 t.size;
  Array.blit t.vals 0 nvals 0 t.size;
  t.keys <- nkeys;
  t.seqs <- nseqs;
  t.vals <- nvals

let[@inline] less t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let k = t.keys.(i) and s = t.seqs.(i) and v = t.vals.(i) in
  t.keys.(i) <- t.keys.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.vals.(i) <- t.vals.(j);
  t.keys.(j) <- k;
  t.seqs.(j) <- s;
  t.vals.(j) <- v

let push t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let i = ref t.size in
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- Obj.repr value;
  t.size <- t.size + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t !i parent
  do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

let top_key t = if t.size = 0 then max_int else t.keys.(0)

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t l !smallest then smallest := l;
    if r < t.size && less t r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap t !smallest !i;
      i := !smallest
    end
  done

(* Remove the minimum without returning it. The vacated slot is cleared
   so the popped payload is unreachable from [t] the moment it leaves. *)
let drop t =
  if t.size = 0 then invalid_arg "Heap.drop: empty";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.vals.(0) <- t.vals.(t.size)
  end;
  t.keys.(t.size) <- 0;
  t.seqs.(t.size) <- 0;
  t.vals.(t.size) <- dummy;
  if t.size > 1 then sift_down t

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty";
  (Obj.obj t.vals.(0) : 'a)

let pop t =
  if t.size = 0 then None
  else begin
    let v = (Obj.obj t.vals.(0) : 'a) in
    drop t;
    Some v
  end
