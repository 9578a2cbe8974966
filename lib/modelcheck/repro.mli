(** Byte-stable repro bundles (schema [mu-verify-repro/2]).

    A bundle is a chaos repro — the whole {!Workload.Chaos.spec}, printed
    by {!Workload.Chaos.spec_fields}, with a script and its injection
    rate — plus the expected verdict. Printing keeps a fixed field order
    and {!of_string} followed by {!to_string} is the identity on any
    bundle this module printed, so a committed bundle replays and
    re-emits byte-identically. {!Workload.Chaos.parse_repro}
    reads a bundle's spec. *)

type t = {
  b_spec : Workload.Chaos.spec;  (** [clients = Script _]. *)
  b_verdict : Conformance.verdict;
}

val to_string : t -> string
val of_string : string -> (t, string) result
(** Strict: an unknown schema, a missing seed, scenario, script, inject or
    verdict, and bad op or verdict strings are errors naming the field.
    [mu-verify-repro/1] bundles still parse, their [history] read as the
    script. *)
