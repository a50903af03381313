module Clock = Th_sim.Clock
module Fault = Th_sim.Fault

type policy = {
  max_retries : int;
  base_backoff_ns : float;
  backoff_multiplier : float;
  max_backoff_ns : float;
  timeout_ns : float;
  jitter : float;
  episode_deadline_ns : float;
}

let default =
  {
    max_retries = 4;
    base_backoff_ns = 20_000.0;
    backoff_multiplier = 2.0;
    max_backoff_ns = 1_000_000.0;
    timeout_ns = 5_000_000.0;
    jitter = 0.25;
    episode_deadline_ns = infinity;
  }

let backoff_ns p ~attempt =
  if attempt <= 0 then 0.0
  else
    Float.min p.max_backoff_ns
      (p.base_backoff_ns *. (p.backoff_multiplier ** float_of_int (attempt - 1)))

exception Io_error of { op : string; attempts : int }

let run policy ~clock ~cat ~faults ~op attempt =
  let recovery_instant name args =
    match Clock.tracer clock with
    | None -> ()
    | Some tr ->
        Th_trace.Recorder.instant tr ~ts:(Clock.now_ns clock) ~cat:"fault"
          ~name ~args ()
  in
  let started_ns = Clock.now_ns clock in
  let watchdog_timeout n =
    Fault.note_watchdog faults;
    recovery_instant "watchdog_timeout"
      [
        ("op", Th_trace.Event.Str op);
        ("attempts", Th_trace.Event.Int (n + 1));
        ("waited_ns", Th_trace.Event.Float (Clock.now_ns clock -. started_ns));
      ];
    raise (Io_error { op; attempts = n + 1 })
  in
  let rec go n =
    match attempt n with
    | Ok v -> v
    | Error `Transient ->
        let elapsed = Clock.now_ns clock -. started_ns in
        (* The watchdog bounds the whole episode, not one attempt: slow
           faulty attempts alone can blow the deadline before the retry
           budget runs out. *)
        if elapsed > policy.episode_deadline_ns then watchdog_timeout n
        else if n >= policy.max_retries then begin
          Fault.note_exhausted faults;
          recovery_instant "retry_exhausted"
            [
              ("op", Th_trace.Event.Str op);
              ("attempts", Th_trace.Event.Int (n + 1));
            ];
          raise (Io_error { op; attempts = n + 1 })
        end
        else begin
          let base = backoff_ns policy ~attempt:(n + 1) in
          (* Jitter spreads the backoff to +/- [jitter] of nominal so
             concurrent episodes don't retry in lockstep. The draw comes
             from the injector's dedicated stream and only happens on an
             actual retry, so fault-free runs never touch it. *)
          let wait =
            if policy.jitter > 0.0 then
              base
              *. (1.0 +. (policy.jitter *. ((2.0 *. Fault.jitter_unit faults) -. 1.0)))
            else base
          in
          if elapsed +. wait > policy.episode_deadline_ns then
            watchdog_timeout n
          else begin
            Fault.note_retry faults;
            Fault.note_backoff faults wait;
            recovery_instant "retry"
              [
                ("op", Th_trace.Event.Str op);
                ("attempt", Th_trace.Event.Int (n + 1));
                ("backoff_ns", Th_trace.Event.Float wait);
              ];
            Clock.advance clock cat wait;
            go (n + 1)
          end
        end
  in
  go 0
