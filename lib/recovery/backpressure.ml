(* Bounded admission for a degraded leader's request queue.

   When the leader cannot commit (quorum lost), parked requests must not
   grow without bound: past [limit] queued requests, new submissions are
   rejected with a retryable error instead of being enqueued. [limit = 0]
   disables the bound (the pre-recovery behaviour), which keeps runs
   that never configure it byte-identical. *)

type t = { limit : int; mutable sheds : int }

let create ~limit = { limit; sheds = 0 }

let enabled t = t.limit > 0

let admit t ~depth =
  if t.limit > 0 && depth >= t.limit then begin
    t.sheds <- t.sheds + 1;
    false
  end
  else true

let sheds t = t.sheds
