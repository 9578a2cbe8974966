(** Metrics registry: named counters, gauges and HDR histograms.

    Components resolve their instruments once at creation time and keep
    the returned handles; updating an instrument is a record-field write
    with no registry involvement. Registering the same (name, labels)
    pair again returns the existing instrument, so instruments shared
    across components (e.g. a per-host counter used by many QPs)
    aggregate naturally, and repeated experiments accumulate into one
    series of metrics.

    Labels are canonicalised (sorted by key) at registration and all
    iteration is sorted by (name, labels), which is what makes the
    exporters byte-deterministic for equal-seed runs. *)

type counter
type gauge

type kind = Counter of counter | Gauge of gauge | Histogram of Hdr.t

type metric = {
  name : string;
  labels : (string * string) list;  (** Sorted by key. *)
  help : string;
  kind : kind;
}

type t

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Find-or-create. Raises [Invalid_argument] if the name is already
    registered with a different instrument kind, or the name is not a
    valid metric identifier ([a-zA-Z0-9_:]+). *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?precision:int -> ?help:string -> ?labels:(string * string) list -> string -> Hdr.t

val metrics : t -> metric list
(** All registered metrics, sorted by (name, labels). *)

val find : t -> ?labels:(string * string) list -> string -> metric option

module Counter : sig
  type t = counter

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t = gauge

  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end
