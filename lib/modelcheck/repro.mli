(** Byte-stable repro bundles (schema [mu-verify-repro/2]): the one repro
    format, written by [mu_demo chaos] and [mu_demo verify] and replayed by
    [mu_demo chaos --scenario].

    A bundle is the whole {!Workload.Chaos.spec}, printed by
    {!Workload.Chaos.spec_fields} (a script or random clients, and the
    injection rate), plus the expected {!Workload.Chaos.verdict} — the one
    verdict, in which a read of a value never put to its key is a
    linearizability failure like any other (isolation follows from
    linearizability, so no bundle names it apart). Printing
    keeps a fixed field order and {!of_string} followed by {!to_string}
    is the identity on any bundle this module printed, so a committed
    bundle replays and re-emits byte-identically. *)

type t = { b_spec : Workload.Chaos.spec; b_verdict : Workload.Chaos.verdict }

val to_string : t -> string
val of_string : string -> (t, string) result
(** Strict: an unknown schema, a missing seed, scenario, inject or
    verdict, and bad op or verdict strings are errors naming the field. A
    bundle without a script replays the spec's random clients.
    [mu-verify-repro/1] bundles still parse, their [history] read as the
    script. *)
