(* Binary min-heap on (key, seq) plus the same-instant FIFO ring.

   Order. Pops leave in exact ascending [(key, seq)] order. The clock is
   the key of the last pop that moved it forward; it moves only when a
   pop takes a heap entry whose key is ahead of it, and then the ring is
   empty. So every ring event has key = clock and was pushed after the
   clock reached it, while every heap entry with key = clock was pushed
   before: the heap's entries at or behind the clock have the smaller
   (key, seq) and pop first, the ring (FIFO = seq order) next, and only
   then does the clock advance to the heap minimum. A push behind the
   clock (the engine never makes one) goes to the heap and pops by its
   key; taking it leaves the clock where it is, or a later push at the
   old clock would land in the ring behind the wrong entries.

   Layout. The heap is three int arrays by heap position — key, seq and
   payload slot — so a sift moves only ints and makes no [caml_modify].
   Payloads sit in [vals] by slot. [slots] is a permutation of every
   slot: positions [0, size) are the heap's, positions [size, cap) hold
   the free slots, so a push takes [slots.(size)] and a pop returns its
   slot to the position the heap just vacated. Payload slots are
   overwritten with an immediate dummy the moment an event leaves — a
   retired event closure must not stay reachable from the queue. The
   [Obj.t] arrays are created with an immediate witness, so they are
   never flat float arrays; [Obj.repr]/[Obj.obj] appear only at the
   typed API boundary. *)

let dummy : Obj.t = Obj.repr 0

type 'a t = {
  mutable clock : int;
  mutable size : int; (* heap entries *)
  mutable keys : int array; (* by heap position *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : Obj.t array; (* by payload slot *)
  mutable ring : Obj.t array; (* same-instant FIFO, power-of-two capacity *)
  mutable ring_head : int;
  mutable ring_len : int;
}

(* Both sizes are measured choices (DESIGN §17 "Set-up time is a GC
   phase"), not derived ones. The heap's arrays start at 256 entries
   and the ring at 512; no perfbench queue makes either grow (at most
   134 events in the heap and 84 in the ring). *)
let initial = 256
let ring_initial = 512

let create () =
  {
    clock = 0;
    size = 0;
    keys = Array.make initial 0;
    seqs = Array.make initial 0;
    slots = Array.init initial Fun.id;
    vals = Array.make initial dummy;
    ring = Array.make ring_initial dummy;
    ring_head = 0;
    ring_len = 0;
  }

let length t = t.size + t.ring_len
let is_empty t = length t = 0

let grow t =
  let cap = Array.length t.keys in
  let ncap = cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.vals <- extend t.vals dummy;
  let slots = extend t.slots 0 in
  for i = cap to ncap - 1 do
    slots.(i) <- i
  done;
  t.slots <- slots

let ring_push t v =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    let ring = Array.make (cap * 2) dummy in
    for i = 0 to cap - 1 do
      ring.(i) <- t.ring.((t.ring_head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) land (Array.length t.ring - 1)) <- v;
  t.ring_len <- t.ring_len + 1

(* Heap positions are below [size <= cap] throughout, hence the unsafe
   accesses in the two sifts. *)
let push t ~key ~seq value =
  if key = t.clock then ring_push t (Obj.repr value)
  else begin
    if t.size = Array.length t.keys then grow t;
    let keys = t.keys and seqs = t.seqs and slots = t.slots in
    let slot = Array.unsafe_get slots t.size in
    Array.unsafe_set t.vals slot (Obj.repr value);
    (* Sift up: move each parent ordered after the new entry down into
       the hole, then fill the hole. *)
    let i = ref t.size in
    t.size <- t.size + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) lsr 1 in
      let pk = Array.unsafe_get keys p in
      pk > key || (pk = key && Array.unsafe_get seqs p > seq)
    do
      let p = (!i - 1) lsr 1 in
      Array.unsafe_set keys !i (Array.unsafe_get keys p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end

let next_key t =
  let top = if t.size = 0 then max_int else t.keys.(0) in
  if t.ring_len > 0 && t.clock < top then t.clock else top

let due_by t at = (t.size > 0 && t.keys.(0) <= at) || (t.ring_len > 0 && t.clock <= at)

let pop_heap t =
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let key0 = keys.(0) and slot0 = slots.(0) in
  let v = t.vals.(slot0) in
  t.vals.(slot0) <- dummy;
  if key0 > t.clock then t.clock <- key0;
  let n = t.size - 1 in
  t.size <- n;
  (* Sift down: the last entry fills the hole at the root, moving the
     smaller child up until it is ordered before both children. *)
  let key = Array.unsafe_get keys n
  and seq = Array.unsafe_get seqs n
  and slot = Array.unsafe_get slots n in
  let i = ref 0 and continue = ref (n > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
          else l
        end
        else l
      in
      let ck = Array.unsafe_get keys c in
      if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set keys !i ck;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then begin
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  Array.unsafe_set slots n slot0;
  (Obj.obj v : 'a)

let pop_exn t =
  if t.ring_len > 0 && (t.size = 0 || t.keys.(0) > t.clock) then begin
    let h = t.ring_head in
    let v = t.ring.(h) in
    t.ring.(h) <- dummy;
    t.ring_head <- (h + 1) land (Array.length t.ring - 1);
    t.ring_len <- t.ring_len - 1;
    (Obj.obj v : 'a)
  end
  else if t.size > 0 then pop_heap t
  else invalid_arg "Evq.pop_exn: empty"

let pop t = if is_empty t then None else Some (pop_exn t)
