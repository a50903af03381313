module Clock = Th_sim.Clock
module Fault = Th_sim.Fault
module Device = Th_device.Device
module H2 = Th_core.H2
module Rt = Th_psgc.Rt
module Runtime = Th_psgc.Runtime
module Gc_stats = Th_psgc.Gc_stats

type config = {
  breaker : Breaker.config;
  ewma_alpha : float;
  retry_rate_trip : float;
  penalty_per_op_trip_ns : float;
  h2_occupancy_trip : float;
}

(* Tripwires sized against the default Io_retry policy: a sustained 2%
   retry rate (one op in 50 needs a second attempt) or 10 us of
   fault-penalty time per op means the device is visibly sick; 90% H2
   occupancy means further moves mostly buy future compaction pain. *)
let default_config =
  {
    breaker = Breaker.default_config;
    ewma_alpha = 0.3;
    retry_rate_trip = 0.02;
    penalty_per_op_trip_ns = 10_000.0;
    h2_occupancy_trip = 0.9;
  }

type summary = {
  final_state : Breaker.state;
  breaker : Breaker.stats;
  samples : int;
  moves_suppressed : int;
  fallback_serializations : int;
  fallback_bytes : int;
  deferred_batches : int;
  slo_violations : int;
  time_total_ns : float;
  time_open_ns : float;
  time_half_open_ns : float;
  slo : Slo.report option;
}

(* Every mutable field below belongs to one run: a monitor is attached
   inside the cell that owns the run (see bench/soak.ml), sampled and
   read there, and dropped before the cell returns its (immutable)
   summary. *)
type t = {
  config : config;
  slo_spec : Slo.spec option;
  rt : Runtime.t;
  clock : Clock.t;
  h2 : H2.t option;
  faults : Fault.t option;
  breaker : Breaker.t;
  attached_at_ns : float;
  (* last-seen cumulative counters, for per-interval deltas *)
  mutable last_ops : int;
  mutable last_retries : int;
  mutable last_penalty_ns : float;
  mutable last_exhausted : int;
  mutable last_watchdogs : int;
  mutable last_cycles : int;
  (* per-op EWMAs, updated only on intervals that saw device traffic *)
  mutable retry_rate_ewma : float;
  mutable penalty_per_op_ewma : float;
  (* degraded-time accounting: dt since the previous sample is charged
     to the state the breaker was in across that interval *)
  mutable last_sample_ns : float;
  mutable time_open_ns : float;
  mutable time_half_open_ns : float;
  mutable samples : int;
  mutable moves_suppressed : int;
  mutable fallback_serializations : int;
  mutable fallback_bytes : int;
  mutable deferred_batches : int;
  mutable slo_violations : int;
}

let instant t ~name args =
  match Clock.tracer t.clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.instant tr ~ts:(Clock.now_ns t.clock)
        ~cat:"resilience" ~name ~args ()

let device_counters t =
  match t.h2 with
  | None -> (0, Fault.zero_stats)
  | Some h2 ->
      let d = Device.stats (H2.device h2) in
      let fs =
        match t.faults with
        | Some f -> Fault.stats f
        | None -> Fault.zero_stats
      in
      (d.Device.read_ops + d.Device.write_ops, fs)

(* Health verdict for the interval since the last sample. Hard evidence
   (exhausted retries, watchdog timeouts) trips immediately; soft
   evidence (retry rate, penalty per op) goes through the EWMAs so one
   unlucky interval doesn't flip the breaker. *)
let classify t =
  let ops, fs = device_counters t in
  let d_ops = ops - t.last_ops in
  let d_retries = fs.Fault.retries - t.last_retries in
  let d_penalty = fs.Fault.penalty_ns -. t.last_penalty_ns in
  let d_exhausted = fs.Fault.exhausted_retries - t.last_exhausted in
  let d_watchdogs = fs.Fault.watchdog_timeouts - t.last_watchdogs in
  t.last_ops <- ops;
  t.last_retries <- fs.Fault.retries;
  t.last_penalty_ns <- fs.Fault.penalty_ns;
  t.last_exhausted <- fs.Fault.exhausted_retries;
  t.last_watchdogs <- fs.Fault.watchdog_timeouts;
  if d_ops > 0 then begin
    let a = t.config.ewma_alpha in
    let mix ewma x = ((1.0 -. a) *. ewma) +. (a *. x) in
    t.retry_rate_ewma <-
      mix t.retry_rate_ewma (float_of_int d_retries /. float_of_int d_ops);
    t.penalty_per_op_ewma <-
      mix t.penalty_per_op_ewma (d_penalty /. float_of_int d_ops)
  end;
  let occupancy =
    match t.h2 with
    | None -> 0.0
    | Some h2 ->
        let cap = (H2.config h2).H2.capacity in
        if cap > 0 then float_of_int (H2.used_bytes h2) /. float_of_int cap
        else 0.0
  in
  if d_exhausted > 0 then Some "exhausted_retries"
  else if d_watchdogs > 0 then Some "watchdog_timeout"
  else if t.retry_rate_ewma > t.config.retry_rate_trip then Some "retry_rate"
  else if t.penalty_per_op_ewma > t.config.penalty_per_op_trip_ns then
    Some "io_penalty"
  else if occupancy > t.config.h2_occupancy_trip then Some "h2_occupancy"
  else None

let check_slo t =
  match t.slo_spec with
  | None -> ()
  | Some spec ->
      let stats = Runtime.stats t.rt in
      let n = Gc_stats.cycle_count stats in
      if n > t.last_cycles then begin
        let cycles = Gc_stats.cycles stats in
        List.iteri
          (fun i c ->
            if i >= t.last_cycles then
              let dur =
                match c with
                | Gc_stats.Minor m -> m.duration_ns
                | Gc_stats.Major m -> m.duration_ns
              in
              if dur > spec.Slo.p99_pause_ns then begin
                t.slo_violations <- t.slo_violations + 1;
                instant t ~name:"slo_violation"
                  [
                    ("pause_ns", Th_trace.Event.Float dur);
                    ( "budget_ns",
                      Th_trace.Event.Float spec.Slo.p99_pause_ns );
                  ]
              end)
          cycles;
        t.last_cycles <- n
      end

let sample t =
  let now = Clock.now_ns t.clock in
  let dt = Float.max 0.0 (now -. t.last_sample_ns) in
  (match Breaker.state t.breaker with
  | Breaker.Open -> t.time_open_ns <- t.time_open_ns +. dt
  | Breaker.Half_open -> t.time_half_open_ns <- t.time_half_open_ns +. dt
  | Breaker.Closed -> ());
  t.last_sample_ns <- now;
  t.samples <- t.samples + 1;
  check_slo t;
  let trouble = classify t in
  let healthy = trouble = None in
  match Breaker.on_sample t.breaker ~now_ns:now ~healthy with
  | `Unchanged -> ()
  | `Opened ->
      instant t ~name:"breaker_open"
        [
          ( "reason",
            Th_trace.Event.Str (Option.value trouble ~default:"probe_fail") );
        ]
  | `Closed -> instant t ~name:"breaker_close" []

let attach ?(config = default_config) ?slo rt =
  let h2 = Runtime.h2 rt in
  let faults = Option.bind h2 (fun h2 -> Device.faults (H2.device h2)) in
  let clock = Runtime.clock rt in
  let now = Clock.now_ns clock in
  let t =
    {
      config;
      slo_spec = slo;
      rt;
      clock;
      h2;
      faults;
      breaker = Breaker.create ~config:config.breaker ();
      attached_at_ns = now;
      last_ops = 0;
      last_retries = 0;
      last_penalty_ns = 0.0;
      last_exhausted = 0;
      last_watchdogs = 0;
      last_cycles = 0;
      retry_rate_ewma = 0.0;
      penalty_per_op_ewma = 0.0;
      last_sample_ns = now;
      time_open_ns = 0.0;
      time_half_open_ns = 0.0;
      samples = 0;
      moves_suppressed = 0;
      fallback_serializations = 0;
      fallback_bytes = 0;
      deferred_batches = 0;
      slo_violations = 0;
    }
  in
  (* Baseline the cumulative counters so pre-attach traffic (setup I/O)
     doesn't land in the first interval. *)
  let ops, fs = device_counters t in
  t.last_ops <- ops;
  t.last_retries <- fs.Fault.retries;
  t.last_penalty_ns <- fs.Fault.penalty_ns;
  t.last_exhausted <- fs.Fault.exhausted_retries;
  t.last_watchdogs <- fs.Fault.watchdog_timeouts;
  t.last_cycles <- Gc_stats.cycle_count (Runtime.stats rt);
  (* Chain, don't clobber: the Th_verify sanitizer may already own the
     hook. Attach the monitor after the verifier. *)
  let prev_hook = rt.Rt.safepoint_hook in
  rt.Rt.safepoint_hook <-
    Some
      (fun p ->
        (match prev_hook with Some f -> f p | None -> ());
        sample t);
  rt.Rt.h2_move_gate <-
    Some
      (fun () ->
        let allowed = Breaker.state t.breaker <> Breaker.Open in
        if not allowed then t.moves_suppressed <- t.moves_suppressed + 1;
        allowed);
  t

let state t = Breaker.state t.breaker

let h2_allowed t = Breaker.state t.breaker <> Breaker.Open

let note_fallback t ~bytes =
  t.fallback_serializations <- t.fallback_serializations + 1;
  t.fallback_bytes <- t.fallback_bytes + bytes

let note_deferred t = t.deferred_batches <- t.deferred_batches + 1

let pause_samples t =
  List.map
    (function
      | Gc_stats.Minor m -> m.duration_ns
      | Gc_stats.Major m -> m.duration_ns)
    (Gc_stats.cycles (Runtime.stats t.rt))

let summary t =
  (* Close the open degraded-time interval up to "now" without taking a
     health sample (summary must not perturb the breaker). *)
  let now = Clock.now_ns t.clock in
  let dt = Float.max 0.0 (now -. t.last_sample_ns) in
  let time_open_ns, time_half_open_ns =
    match Breaker.state t.breaker with
    | Breaker.Open -> (t.time_open_ns +. dt, t.time_half_open_ns)
    | Breaker.Half_open -> (t.time_open_ns, t.time_half_open_ns +. dt)
    | Breaker.Closed -> (t.time_open_ns, t.time_half_open_ns)
  in
  let time_total_ns = Float.max 0.0 (now -. t.attached_at_ns) in
  let slo =
    Option.map
      (fun spec ->
        Slo.evaluate spec ~pause_samples_ns:(pause_samples t)
          ~total_ns:time_total_ns
          ~degraded_ns:(time_open_ns +. time_half_open_ns))
      t.slo_spec
  in
  {
    final_state = Breaker.state t.breaker;
    breaker = Breaker.stats t.breaker;
    samples = t.samples;
    moves_suppressed = t.moves_suppressed;
    fallback_serializations = t.fallback_serializations;
    fallback_bytes = t.fallback_bytes;
    deferred_batches = t.deferred_batches;
    slo_violations = t.slo_violations;
    time_total_ns;
    time_open_ns;
    time_half_open_ns;
    slo;
  }

let pp_summary f s =
  Format.fprintf f "@[<v>";
  Format.fprintf f
    "breaker %s: %d trips (%d reopens), %d closes, probes %d ok / %d failed \
     | %d samples | moves suppressed %d cycles, fallback serializations %d \
     (%d B), deferred %d | slo violations %d | degraded %.1f%% of %.1f ms"
    (Breaker.state_name s.final_state)
    s.breaker.Breaker.trips s.breaker.Breaker.reopens s.breaker.Breaker.closes
    s.breaker.Breaker.probes_ok s.breaker.Breaker.probes_failed s.samples
    s.moves_suppressed s.fallback_serializations s.fallback_bytes
    s.deferred_batches s.slo_violations
    (if s.time_total_ns > 0.0 then
       100.0 *. (s.time_open_ns +. s.time_half_open_ns) /. s.time_total_ns
     else 0.0)
    (s.time_total_ns /. 1e6);
  (match s.slo with
  | None -> ()
  | Some r -> Format.fprintf f "@,%a" Slo.pp_report r);
  Format.fprintf f "@]"
