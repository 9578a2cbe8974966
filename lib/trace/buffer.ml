type t = {
  cap : int;
  data : Sim.Probe.event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let dummy =
  {
    Sim.Probe.ts = 0;
    kind = Sim.Probe.Instant;
    name = "";
    cat = "";
    pid = 0;
    tid = 0;
    id = 0;
    args = [];
  }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.Buffer.create: capacity must be positive";
  { cap = capacity; data = Array.make capacity dummy; head = 0; len = 0; dropped = 0 }

let capacity t = t.cap
let length t = t.len
let dropped t = t.dropped
let recorded t = t.len + t.dropped

let add t ev =
  if t.len < t.cap then begin
    t.data.((t.head + t.len) mod t.cap) <- ev;
    t.len <- t.len + 1
  end
  else begin
    t.data.(t.head) <- ev;
    t.head <- (t.head + 1) mod t.cap;
    t.dropped <- t.dropped + 1
  end

let to_list t =
  List.init t.len (fun i -> t.data.((t.head + i) mod t.cap))

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
