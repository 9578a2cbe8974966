let cal qp = Sim.Host.calibration (Qp.host qp)

let span qp name f =
  let host = Qp.host qp in
  Sim.Engine.trace_span (Sim.Host.engine host) ~cat:"rdma" ~pid:(Sim.Host.id host) name f

(* Wrap [f] so its virtual-time duration lands in
   rdma_perm_switch_ns{path}. One option check when telemetry is off. *)
let timed host ~path f =
  let e = Sim.Host.engine host in
  match Sim.Engine.metrics e with
  | None -> f ()
  | Some reg ->
    let h =
      Telemetry.Registry.histogram reg ~help:"Permission switch latency by mechanism"
        ~labels:[ ("path", path) ] "rdma_perm_switch_ns"
    in
    let t0 = Sim.Engine.now e in
    Fun.protect ~finally:(fun () -> Telemetry.Hdr.record h (Sim.Engine.now e - t0)) f

let change_qp_flags qp access =
  span qp "perm_flags" (fun () ->
      timed (Qp.host qp) ~path:"flags" @@ fun () ->
      let host = Qp.host qp in
      let c = cal qp in
      let hazardous =
        match Qp.peer qp with None -> false | Some peer -> Qp.outstanding peer > 0
      in
      (* Injected fault: a scenario may force this host's fast path to fail
         (driving Mu onto the QP-restart slow path, §7.3). Checked before
         the hazard draw so forcing never perturbs the random stream of a
         fault-free run. *)
      let forced =
        Sim.Fabric.perm_failure_forced
          (Sim.Engine.fabric (Sim.Host.engine host))
          ~pid:(Sim.Host.id host)
      in
      Sim.Host.cpu host
        (Sim.Distribution.sample_ns c.Sim.Calibration.perm_qp_flags (Sim.Host.rng host));
      if forced || (hazardous && Sim.Rng.bool (Sim.Host.rng host)) then begin
        let e = Sim.Host.engine host in
        if forced && Sim.Engine.traced e then
          Sim.Engine.trace_instant e ~cat:"fault" ~pid:(Sim.Host.id host)
            "perm_fail_forced";
        Qp.set_state qp Verbs.Err;
        Error `Qp_error
      end
      else begin
        Qp.set_access qp access;
        Ok ()
      end)

let rereg_mr mr access =
  let host = Mr.host mr in
  Sim.Engine.trace_span (Sim.Host.engine host) ~cat:"rdma" ~pid:(Sim.Host.id host) "mr_rereg"
    (fun () ->
      timed host ~path:"mr_rereg" @@ fun () ->
      let c = Sim.Host.calibration host in
      let d = Sim.Calibration.mr_rereg_time c ~bytes:(Mr.size mr) in
      Sim.Host.cpu host (Sim.Distribution.sample_ns d (Sim.Host.rng host));
      Mr.set_access mr access)

(* The slow path: cycle the pair ({!Qp.reconnect}), then install the
   flags. *)
let slow qp access =
  span qp "perm_restart" (fun () ->
      timed (Qp.host qp) ~path:"restart" @@ fun () ->
      Qp.reconnect qp;
      Qp.set_access qp access);
  `Slow

let fast_slow_switch qp access =
  (* A pair with an end out of RTS cannot take a flag change. *)
  if not (Qp.pair_rts qp) then slow qp access
  else
    match change_qp_flags qp access with
    | Ok () -> `Fast
    | Error `Qp_error ->
      let e = Sim.Host.engine (Qp.host qp) in
      if Sim.Engine.traced e then
        Sim.Engine.trace_instant e ~cat:"rdma" ~pid:(Sim.Host.id (Qp.host qp)) "perm_slow_path";
      slow qp access
