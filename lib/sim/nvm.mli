(** Simulated non-volatile memory.

    Named byte regions keyed by an owner id (the machine identity, e.g.
    a replica id) that survive {!Host.kill_host}: a restarted host
    re-opens its regions and finds the bytes written before the crash.
    Regions are handed out as {!Mem.t} pages — registering an MR over
    one ({!Rdma.Mr.register}[ ~mem]) makes every write to the region
    write-through to NVM by construction. Pages are zero-on-demand, so
    a region costs memory only where it has been written. Creating or
    opening a region consumes no virtual time and no randomness, so runs
    that never restart a host are unaffected by durable state being on. *)

type t

val create : unit -> t

val fresh_namespace : t -> int
(** The next namespace of this store: 0, then 1, 2, ... A deployment
    that keeps several clusters on one engine takes one per cluster and
    folds it into its owner ids, so the clusters never open each other's
    regions. *)

val region : t -> owner:int -> name:string -> size:int -> Mem.t
(** Open (or create, zero-filled) the region [name] of [owner]. Raises
    [Invalid_argument] if it exists with a different size. *)

val mem : t -> owner:int -> name:string -> bool
(** Whether the region already exists (i.e. a previous incarnation of
    [owner] created it). *)

val erase : t -> owner:int -> name:string -> unit
(** Discard a region — models replacing the machine's NVM device. *)
