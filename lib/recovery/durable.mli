(** Durable-state layout for a replica.

    A replica with durable state on keeps two {!Sim.Nvm} regions:

    - the {b log} region backs the consensus-log MR directly, so slot
      writes and the FUO/minProposal header are write-through durable;
    - the {b meta} region holds the membership configuration as last
      written by this replica (updated on every wiring change). The
      restart path does not read it back: it rebuilds membership from
      the surviving replicas ([Smr.restart_fiber], step 3); only tests
      call {!read_members}.

    Both survive {!Sim.Host.kill_host}; a clean {!Sim.Host.stop_process}
    trivially keeps them too. *)

val log_backing : Sim.Nvm.t -> owner:int -> size:int -> Sim.Mem.t
(** Open (or create) the owner's durable log region. *)

val meta_backing : Sim.Nvm.t -> owner:int -> Sim.Mem.t
(** Open (or create) the owner's durable membership region. *)

val has_durable_state : Sim.Nvm.t -> owner:int -> bool
(** Whether a previous incarnation of [owner] left a durable log. *)

val write_members : Sim.Mem.t -> int list -> unit
(** Overwrite the meta region with a member list (deduplicated,
    sorted; at most 64 ids). *)

val read_members : Sim.Mem.t -> int list option
(** Decode the member list; [None] if the region is blank or from an
    incompatible layout. *)
