(* Hierarchical timing-wheel event queue.

   Four levels of 256 slots over 1-ns ticks cover a 2^32 ns horizon;
   level [l] holds events whose key agrees with the wheel clock [now]
   on every bit above [8*(l+1)] but differs somewhere in bits
   [8*l .. 8*(l+1)-1] (test: [key lxor now < 1 lsl (8*(l+1))]). Events
   beyond the horizon wait in an overflow min-heap and are drained into
   the wheel when the clock reaches their 2^32-aligned region; events
   pushed behind [now] (possible after a peek advanced the wheel past a
   [run ~until] limit) go to a small "past" heap that always pops first.

   Determinism. Pops leave in exact ascending [(key, seq)] order — the
   same total order as the binary heap this structure replaced — by
   construction rather than by sorting:
   - a level-0 slot only ever holds one exact key between drains
     (level 0 spans one 256-tick revolution, and the clock crosses a
     revolution boundary only when level 0 is empty);
   - a bucket is only appended to by (a) direct pushes, whose seq is
     globally monotonic and therefore larger than anything already
     queued, and (b) a single cascade from the level above, which
     happens when the clock first enters the slot's span — before any
     direct push can target it — and which preserves the source
     bucket's insertion (= seq) order.
   So every bucket is seq-sorted at all times and the front of the
   current level-0 bucket is the global minimum.

   Allocation. Buckets are parallel int/int/[Obj.t] arrays (grown
   geometrically, never shrunk) and occupancy is a 1024-bit bitmap in
   32-bit words, so a push/pop cycle allocates nothing. Payload slots
   are overwritten with an immediate dummy the moment an event leaves
   (pop, cascade, drain) — a retired event closure must not stay
   reachable from the queue. The [Obj.t] payload arrays are created
   with an immediate witness, so they are never flat float arrays;
   [Obj.repr]/[Obj.obj] appear only at the typed API boundary. *)

let bits = 8
let slots = 1 lsl bits
let mask = slots - 1
let levels = 4
let horizon = 1 lsl (bits * levels)
let buckets = levels * slots
let dummy : Obj.t = Obj.repr 0

type 'a t = {
  mutable now : int; (* every wheel event has key >= now *)
  bkeys : int array array; (* bucket b = level*256 + slot *)
  bseqs : int array array;
  bvals : Obj.t array array;
  sizes : int array;
  occ : int array; (* occupancy bitmap, 32 bits per word *)
  mutable cur : int; (* level-0 bucket being drained, -1 if none *)
  mutable head : int; (* consumed prefix of [cur] *)
  mutable count : int; (* events in the wheel proper *)
  lvl : int array; (* events per level, maintained by place/cascade/pop *)
  past : Obj.t Heap.t;
  overflow : Obj.t Heap.t;
}

let create () =
  {
    now = 0;
    bkeys = Array.make buckets [||];
    bseqs = Array.make buckets [||];
    bvals = Array.make buckets [||];
    sizes = Array.make buckets 0;
    occ = Array.make (buckets / 32) 0;
    cur = -1;
    head = 0;
    count = 0;
    lvl = Array.make levels 0;
    past = Heap.create ();
    overflow = Heap.create ();
  }

let length t = t.count + Heap.length t.past + Heap.length t.overflow
let is_empty t = length t = 0

let[@inline] set_bit t b = t.occ.(b lsr 5) <- t.occ.(b lsr 5) lor (1 lsl (b land 31))
let[@inline] clear_bit t b = t.occ.(b lsr 5) <- t.occ.(b lsr 5) land lnot (1 lsl (b land 31))

let grow_bucket t b =
  let cap = Array.length t.bkeys.(b) in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nkeys = Array.make ncap 0 in
  let nseqs = Array.make ncap 0 in
  let nvals = Array.make ncap dummy in
  Array.blit t.bkeys.(b) 0 nkeys 0 t.sizes.(b);
  Array.blit t.bseqs.(b) 0 nseqs 0 t.sizes.(b);
  Array.blit t.bvals.(b) 0 nvals 0 t.sizes.(b);
  t.bkeys.(b) <- nkeys;
  t.bseqs.(b) <- nseqs;
  t.bvals.(b) <- nvals

(* Place an event already known to satisfy [now <= key < now + horizon
   region] into its level/slot. Does not touch [count]. *)
let place t ~key ~seq v =
  let x = key lxor t.now in
  let l =
    if x < 1 lsl bits then 0
    else if x < 1 lsl (2 * bits) then 1
    else if x < 1 lsl (3 * bits) then 2
    else 3
  in
  let b = (l * slots) + ((key lsr (l * bits)) land mask) in
  let n = t.sizes.(b) in
  if n = Array.length t.bkeys.(b) then grow_bucket t b;
  t.bkeys.(b).(n) <- key;
  t.bseqs.(b).(n) <- seq;
  t.bvals.(b).(n) <- v;
  t.sizes.(b) <- n + 1;
  t.lvl.(l) <- t.lvl.(l) + 1;
  if n = 0 then set_bit t b

let push t ~key ~seq value =
  let v = Obj.repr value in
  if key < t.now then Heap.push t.past ~key ~seq v
  else if key lxor t.now >= horizon then Heap.push t.overflow ~key ~seq v
  else begin
    place t ~key ~seq v;
    t.count <- t.count + 1
  end

(* Index of the lowest set bit of a nonzero 32-bit word: [x land (-x)]
   isolates the bit, and multiplying that power of two by a de Bruijn
   constant puts a distinct 5-bit pattern in the top bits of the word. *)
let debruijn = 0x077CB531

let debruijn_index =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * debruijn) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  tbl

let[@inline] lowest_bit x =
  Array.unsafe_get debruijn_index ((((x land -x) * debruijn) land 0xFFFF_FFFF) lsr 27)

(* First occupied slot of level [l] at index >= [from]; -1 if none. *)
let scan t l from =
  if from > mask then -1
  else begin
    let base = l * slots in
    let b = base + from in
    let last = (base + mask) lsr 5 in
    let w = ref (b lsr 5) in
    let x = ref (t.occ.(!w) land (-1 lsl (b land 31))) in
    while !x = 0 && !w < last do
      incr w;
      x := t.occ.(!w)
    done;
    if !x = 0 then -1 else (!w lsl 5) + lowest_bit !x - base
  end

(* Move every event of bucket [b] (level >= 1) one or more levels down,
   now that [t.now] sits at the start of the bucket's span. Preserves
   per-target-bucket seq order because the source is traversed in
   insertion order. *)
let cascade t b =
  let n = t.sizes.(b) in
  t.sizes.(b) <- 0;
  clear_bit t b;
  let src = b / slots in
  t.lvl.(src) <- t.lvl.(src) - n;
  let keys = t.bkeys.(b) and seqs = t.bseqs.(b) and vals = t.bvals.(b) in
  for i = 0 to n - 1 do
    let v = vals.(i) in
    vals.(i) <- dummy;
    place t ~key:keys.(i) ~seq:seqs.(i) v
  done

(* Advance to the next wheel event: leaves [cur]/[head] on its level-0
   bucket with [t.now] equal to its key and returns [true]; returns
   [false] when the wheel and overflow are both empty. *)
let rec locate t =
  if t.cur >= 0 && t.head < t.sizes.(t.cur) then true
  else begin
    if t.cur >= 0 then begin
      (* fully drained: retire the bucket *)
      t.sizes.(t.cur) <- 0;
      clear_bit t t.cur;
      t.cur <- -1;
      t.head <- 0
    end;
    if t.count > 0 then begin
      (* Level 0 holds only the current revolution, so scanning from
         [now]'s slot (inclusive — a same-instant push may have refilled
         it) forward is exhaustive. *)
      let s0 = scan t 0 (t.now land mask) in
      if s0 >= 0 then begin
        t.now <- t.now land lnot mask lor s0;
        t.cur <- s0;
        t.head <- 0;
        true
      end
      else begin
        (* Current revolution exhausted: enter the next occupied span of
           the closest level above, cascade it down, and rescan. The
           slot holding [now] itself is never occupied at level >= 1
           (its events would be lower-level by definition), hence the
           strict [+ 1]. *)
        let rec up l =
          if l >= levels then invalid_arg "Wheel: occupancy out of sync"
          else begin
            let sl = scan t l (((t.now lsr (l * bits)) land mask) + 1) in
            if sl < 0 then up (l + 1)
            else begin
              let keep = lnot ((1 lsl ((l + 1) * bits)) - 1) in
              t.now <- t.now land keep lor (sl lsl (l * bits));
              cascade t ((l * slots) + sl);
              locate t
            end
          end
        in
        up 1
      end
    end
    else if not (Heap.is_empty t.overflow) then begin
      (* Wheel empty: jump to the overflow's earliest region and drain
         everything that fits under the horizon from there. *)
      t.now <- Heap.top_key t.overflow;
      while
        (not (Heap.is_empty t.overflow)) && Heap.top_key t.overflow lxor t.now < horizon
      do
        let key = Heap.top_key t.overflow and seq = Heap.top_seq t.overflow in
        let v = Heap.top t.overflow in
        Heap.drop t.overflow;
        place t ~key ~seq v;
        t.count <- t.count + 1
      done;
      locate t
    end
    else false
  end

let next_key t =
  if Heap.length t.past > 0 then Heap.top_key t.past
  else if locate t then t.now
  else max_int

let next_seq t =
  if Heap.length t.past > 0 then Heap.top_seq t.past
  else if locate t then t.bseqs.(t.cur).(t.head)
  else max_int

(* Whether the wheel proper holds a key <= [at], for [at >= t.now].
   Every level-l event sorts before every event above it, so only the
   lowest non-empty level matters. There the first live slot gives the
   exact minimum at level 0 (a slot holds one key) and a lower bound of
   its span above; a span straddling [at] is settled by its bucket's
   keys. The drained-but-unretired [cur] bucket keeps its bit until the
   next [locate], so it counts only while it has unconsumed events. *)
let wheel_due t at =
  let l =
    if t.lvl.(0) > 0 then 0 else if t.lvl.(1) > 0 then 1 else if t.lvl.(2) > 0 then 2 else 3
  in
  let shift = l * bits in
  let from = ((t.now lsr shift) land mask) + if l = 0 then 0 else 1 in
  let s = scan t l from in
  let s = if l = 0 && s >= 0 && s = t.cur && t.head >= t.sizes.(s) then scan t l (s + 1) else s in
  if s < 0 then false
  else begin
    let start = t.now land lnot ((1 lsl (shift + bits)) - 1) lor (s lsl shift) in
    if start > at then false
    else if start + (1 lsl shift) - 1 <= at then true
    else begin
      let b = (l * slots) + s in
      let keys = t.bkeys.(b) in
      let found = ref false in
      for i = 0 to t.sizes.(b) - 1 do
        if keys.(i) <= at then found := true
      done;
      !found
    end
  end

let due_by t at =
  (Heap.length t.past > 0 && Heap.top_key t.past <= at)
  || (t.count > 0 && at >= t.now && wheel_due t at)
  || (Heap.length t.overflow > 0 && Heap.top_key t.overflow <= at)

let pop_exn t =
  if Heap.length t.past > 0 then begin
    let v = Heap.top t.past in
    Heap.drop t.past;
    (Obj.obj v : 'a)
  end
  else if locate t then begin
    let b = t.cur and i = t.head in
    let v = t.bvals.(b).(i) in
    t.bvals.(b).(i) <- dummy;
    t.head <- i + 1;
    t.count <- t.count - 1;
    (* [cur] is always a level-0 bucket. *)
    t.lvl.(0) <- t.lvl.(0) - 1;
    (Obj.obj v : 'a)
  end
  else invalid_arg "Wheel.pop_exn: empty"

let pop t = if is_empty t then None else Some (pop_exn t)

(* --- occupancy ---------------------------------------------------------- *)

type stats = {
  level_events : int array;
  level_slots : int array;
  past : int;
  overflow : int;
}

let stats t =
  let level_slots = Array.make levels 0 in
  (* Popcount over the occupancy bitmap, 8 words of 32 bits per level. *)
  for l = 0 to levels - 1 do
    let n = ref 0 in
    for w = l * slots / 32 to (((l + 1) * slots) / 32) - 1 do
      let x = ref t.occ.(w) in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr n
      done
    done;
    level_slots.(l) <- !n
  done;
  {
    level_events = Array.copy t.lvl;
    level_slots;
    past = Heap.length t.past;
    overflow = Heap.length t.overflow;
  }
