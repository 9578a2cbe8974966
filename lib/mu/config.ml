type attach_mode = Standalone | Direct | Handover

type t = {
  n : int;
  log_slots : int;
  value_cap : int;
  attach : attach_mode;
  max_batch : int;
  max_outstanding : int;
  recycle_interval : int;
  recycle_slack : int;
  fate_sharing : bool;
  fate_sharing_stuck_after : int;
  disable_omit_prepare : bool;
  checksum_canary : bool;
  persistent_log : bool;
  durable_state : bool;
  queue_limit : int;
  doorbell : int;
}

let default =
  {
    n = 3;
    log_slots = 8192;
    value_cap = 1024;
    attach = Standalone;
    max_batch = 1;
    max_outstanding = 1;
    recycle_interval = 10_000_000;
    recycle_slack = 64;
    fate_sharing = false;
    fate_sharing_stuck_after = 10_000_000;
    disable_omit_prepare = false;
    checksum_canary = false;
    persistent_log = false;
    durable_state = false;
    queue_limit = 0;
    doorbell = 1;
  }

type value = Int of int | Bool of bool | Attach of attach_mode

let fields =
  let int name get set =
    (name, (fun c -> Int (get c)), fun c -> function Int v -> Some (set c v) | _ -> None)
  in
  let bool name get set =
    (name, (fun c -> Bool (get c)), fun c -> function Bool v -> Some (set c v) | _ -> None)
  in
  [
    int "n" (fun c -> c.n) (fun c v -> { c with n = v });
    int "log_slots" (fun c -> c.log_slots) (fun c v -> { c with log_slots = v });
    int "value_cap" (fun c -> c.value_cap) (fun c v -> { c with value_cap = v });
    ( "attach",
      (fun c -> Attach c.attach),
      fun c -> function Attach v -> Some { c with attach = v } | _ -> None );
    int "max_batch" (fun c -> c.max_batch) (fun c v -> { c with max_batch = v });
    int "max_outstanding" (fun c -> c.max_outstanding) (fun c v -> { c with max_outstanding = v });
    int "recycle_interval" (fun c -> c.recycle_interval) (fun c v -> { c with recycle_interval = v });
    int "recycle_slack" (fun c -> c.recycle_slack) (fun c v -> { c with recycle_slack = v });
    bool "fate_sharing" (fun c -> c.fate_sharing) (fun c v -> { c with fate_sharing = v });
    int "fate_sharing_stuck_after" (fun c -> c.fate_sharing_stuck_after) (fun c v ->
        { c with fate_sharing_stuck_after = v });
    bool "disable_omit_prepare" (fun c -> c.disable_omit_prepare) (fun c v ->
        { c with disable_omit_prepare = v });
    bool "checksum_canary" (fun c -> c.checksum_canary) (fun c v -> { c with checksum_canary = v });
    bool "persistent_log" (fun c -> c.persistent_log) (fun c v -> { c with persistent_log = v });
    bool "durable_state" (fun c -> c.durable_state) (fun c v -> { c with durable_state = v });
    int "queue_limit" (fun c -> c.queue_limit) (fun c v -> { c with queue_limit = v });
    int "doorbell" (fun c -> c.doorbell) (fun c v -> { c with doorbell = v });
  ]

let majority t = (t.n / 2) + 1

let validate t =
  if t.n < 1 then invalid_arg "Config: n must be >= 1";
  if t.log_slots < 2 * t.recycle_slack then invalid_arg "Config: log too small for slack";
  if t.value_cap <= 0 then invalid_arg "Config: value_cap must be positive";
  if t.max_batch < 1 then invalid_arg "Config: max_batch must be >= 1";
  if t.max_outstanding < 1 then invalid_arg "Config: max_outstanding must be >= 1";
  if t.queue_limit < 0 then invalid_arg "Config: queue_limit must be >= 0";
  if t.doorbell < 1 then invalid_arg "Config: doorbell must be >= 1";
  if t.doorbell > 1 && t.doorbell > t.log_slots - (2 * t.recycle_slack) then
    invalid_arg "Config: doorbell group cannot exceed usable log window"
