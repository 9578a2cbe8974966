type access = { remote_read : bool; remote_write : bool }

let access_none = { remote_read = false; remote_write = false }
let access_ro = { remote_read = true; remote_write = false }
let access_rw = { remote_read = true; remote_write = true }

type qp_state = Reset | Init | Rtr | Rts | Err

type wc_status = Success | Remote_access_error | Operation_timeout | Flushed

let pp_wc_status ppf s =
  Fmt.string ppf
    (match s with
    | Success -> "success"
    | Remote_access_error -> "remote-access-error"
    | Operation_timeout -> "timeout"
    | Flushed -> "flushed")

type wc = {
  wr_id : int;
  kind : [ `Write | `Read | `Send | `Recv ];
  status : wc_status;
  byte_len : int;
}
