(* Watches and read hooks are shared by every alias of a registration:
   overlapping MRs are one piece of memory, so a store or a load through
   either is seen by both. *)
type watch = { lo : int; hi : int; fn : off:int -> len:int -> unit }
type read_hook = { word : int; before : unit -> unit }
type hooks = { mutable watches : watch list; mutable reads : read_hook list }

type t = {
  host : Sim.Host.t;
  mem : Sim.Mem.t;
  hooks : hooks;
  mutable access : Verbs.access;
  mutable valid : bool;
  persistent : bool;
}

let register ?(persistent = false) ?mem host ~size ~access =
  if size <= 0 then invalid_arg "Mr.register: size must be positive";
  let mem =
    match mem with
    | None -> Sim.Mem.create size
    | Some m ->
      if Sim.Mem.size m <> size then
        invalid_arg "Mr.register: memory size does not match region size";
      m
  in
  { host; mem; hooks = { watches = []; reads = [] }; access; valid = true; persistent }

let alias t ~access = { t with access; valid = true }
let host t = t.host
let size t = Sim.Mem.size t.mem
let access t = t.access
let set_access t access = t.access <- access
let invalidate t = t.valid <- false
let is_valid t = t.valid
let in_bounds t ~off ~len = off >= 0 && len >= 0 && off <= size t - len
let is_persistent t = t.persistent

let watch t ~off ~len fn =
  if not (in_bounds t ~off ~len) then invalid_arg "Mr.watch: range out of bounds";
  t.hooks.watches <- t.hooks.watches @ [ { lo = off; hi = off + len; fn } ]

let on_read t ~off f =
  if not (in_bounds t ~off ~len:8) then invalid_arg "Mr.on_read: word out of bounds";
  t.hooks.reads <- t.hooks.reads @ [ { word = off; before = f } ]

let rec fire ws ~off ~len =
  match ws with
  | [] -> ()
  | w :: rest ->
    if off < w.hi && off + len > w.lo then w.fn ~off ~len;
    fire rest ~off ~len

let[@inline] stored t ~off ~len =
  match t.hooks.watches with [] -> () | ws -> fire ws ~off ~len

let rec run_reads rs ~off ~len =
  match rs with
  | [] -> ()
  | r :: rest ->
    if off < r.word + 8 && off + len > r.word then r.before ();
    run_reads rest ~off ~len

let[@inline] loading t ~off ~len =
  match t.hooks.reads with [] -> () | rs -> run_reads rs ~off ~len

let get_i64 t ~off =
  loading t ~off ~len:8;
  Sim.Mem.get_i64 t.mem off

let get_int t ~off =
  loading t ~off ~len:8;
  Sim.Mem.get_int t.mem off

let get_i32 t ~off =
  loading t ~off ~len:4;
  Sim.Mem.get_i32 t.mem off

let get_char t ~off =
  loading t ~off ~len:1;
  Sim.Mem.get_char t.mem off

let get_bytes t ~off ~len =
  loading t ~off ~len;
  Sim.Mem.sub t.mem ~off ~len

let set_i64 t ~off v =
  Sim.Mem.set_i64 t.mem off v;
  stored t ~off ~len:8

let set_int t ~off v =
  Sim.Mem.set_int t.mem off v;
  stored t ~off ~len:8

let set_bytes t ~off b =
  let len = Bytes.length b in
  Sim.Mem.blit_from_bytes b 0 t.mem off len;
  stored t ~off ~len

let write_from t ~off ~src ~src_off ~len =
  Sim.Mem.blit_from_bytes src src_off t.mem off len;
  stored t ~off ~len

let zero t ~off ~len =
  Sim.Mem.fill t.mem ~off ~len '\000';
  stored t ~off ~len
