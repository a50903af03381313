type spec = {
  seed : int64;
  read_error_rate : float;
  write_error_rate : float;
  spike_rate : float;
  spike_factor : float;
  spike_duration_ns : float;
  stall_rate : float;
  stall_ns : float;
  full_rate : float;
  full_duration_ns : float;
}

let zero =
  {
    seed = 1L;
    read_error_rate = 0.0;
    write_error_rate = 0.0;
    spike_rate = 0.0;
    spike_factor = 1.0;
    spike_duration_ns = 0.0;
    stall_rate = 0.0;
    stall_ns = 0.0;
    full_rate = 0.0;
    full_duration_ns = 0.0;
  }

(* Rates are per device operation. A simulated run issues 1e5–1e7 device
   ops, so 1e-4 yields a steady trickle of transient errors while 1e-6
   windows stay rare events. Spike episodes model NVMe internal GC /
   thermal throttling: ~8x latency for a few hundred microseconds. *)
let default_plan =
  {
    zero with
    read_error_rate = 2e-4;
    write_error_rate = 2e-4;
    spike_rate = 5e-5;
    spike_factor = 8.0;
    spike_duration_ns = 200_000.0;
    stall_rate = 1e-4;
    stall_ns = 50_000.0;
    full_rate = 2e-6;
    full_duration_ns = 500_000.0;
  }

let harsh =
  {
    zero with
    read_error_rate = 2e-3;
    write_error_rate = 2e-3;
    spike_rate = 5e-4;
    spike_factor = 16.0;
    spike_duration_ns = 500_000.0;
    stall_rate = 1e-3;
    stall_ns = 100_000.0;
    full_rate = 5e-5;
    full_duration_ns = 2_000_000.0;
  }

(* ------------------------------------------------------------------ *)
(* Phased plans                                                        *)

type plan = { phases : (spec * float) list; cycle : bool }

let static s = { phases = [ (s, infinity) ]; cycle = false }

let scale_rates k s =
  {
    s with
    read_error_rate = Float.min 1.0 (s.read_error_rate *. k);
    write_error_rate = Float.min 1.0 (s.write_error_rate *. k);
    spike_rate = Float.min 1.0 (s.spike_rate *. k);
    stall_rate = Float.min 1.0 (s.stall_rate *. k);
    full_rate = Float.min 1.0 (s.full_rate *. k);
  }

(* A device aging over the run: a fresh drive injects a quarter of the
   moderate rates, then error clustering sets in and each later phase
   quadruples them, ending worn out (16x default, harsh-grade spikes)
   for the rest of the run. Durations are simulated seconds, sized for
   the long-horizon soak workloads rather than the batch jobs. *)
let wearout =
  {
    phases =
      [
        (scale_rates 0.25 default_plan, 2e9);
        (default_plan, 5e9);
        (scale_rates 4.0 default_plan, 10e9);
        ({ (scale_rates 16.0 default_plan) with spike_factor = 16.0 }, infinity);
      ];
    cycle = false;
  }

(* Clustered fault episodes: long quiet stretches with short storms of
   harsh-grade faults, repeating for the whole run. *)
let bursty =
  { phases = [ (zero, 80_000_000.0); (harsh, 20_000_000.0) ]; cycle = true }

let to_string s =
  Printf.sprintf
    "seed=%Ld,read_err=%g,write_err=%g,spike=%g,spike_factor=%g,spike_us=%g,\
     stall=%g,stall_us=%g,full=%g,full_us=%g"
    s.seed s.read_error_rate s.write_error_rate s.spike_rate s.spike_factor
    (s.spike_duration_ns /. 1e3)
    s.stall_rate
    (s.stall_ns /. 1e3)
    s.full_rate
    (s.full_duration_ns /. 1e3)

let plan_to_string p =
  match p with
  | { phases = [ (s, d) ]; cycle = false } when d = infinity -> to_string s
  | { phases; cycle } ->
      let phase_str (s, d) =
        if d = infinity then Printf.sprintf "phase(%s)" (to_string s)
        else Printf.sprintf "phase(%s,dur_us=%g)" (to_string s) (d /. 1e3)
      in
      String.concat "," (List.map phase_str phases)
      ^ if cycle then ",cycle" else ""

(* Split on commas at parenthesis depth 0, so a phase(...) field keeps
   its inner comma-separated spec intact. *)
let split_fields str =
  let out = ref [] and buf = Buffer.create 32 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          Buffer.add_char buf c
      | ',' when !depth = 0 ->
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    str;
  out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out

(* Per-key validation: rate keys are probabilities, durations are
   non-negative simulated time, and the spike factor is a latency
   multiplier of at least 1. *)
let apply_spec_field spec field =
  match field with
  | "" -> Result.Ok spec
  | "none" -> Result.Ok { zero with seed = spec.seed }
  | "default" -> Result.Ok { default_plan with seed = spec.seed }
  | "harsh" -> Result.Ok { harsh with seed = spec.seed }
  | _ -> (
      match String.index_opt field '=' with
      | None -> Result.Error (Printf.sprintf "fault spec: missing '=' in %S" field)
      | Some i -> (
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          let float_v () =
            match float_of_string_opt v with
            | Some f when f >= 0.0 -> Result.Ok f
            | _ ->
                Result.Error
                  (Printf.sprintf "fault spec: bad value %S for %s" v key)
          in
          let rate_v () =
            match float_of_string_opt v with
            | Some f when f >= 0.0 && f <= 1.0 -> Result.Ok f
            | Some f ->
                Result.Error
                  (Printf.sprintf
                     "fault spec: %s=%g is not a probability (want 0..1)" key f)
            | None ->
                Result.Error
                  (Printf.sprintf "fault spec: bad value %S for %s" v key)
          in
          let factor_v () =
            match float_of_string_opt v with
            | Some f when f >= 1.0 -> Result.Ok f
            | Some f ->
                Result.Error
                  (Printf.sprintf
                     "fault spec: %s=%g is not a slowdown factor (want >= 1)"
                     key f)
            | None ->
                Result.Error
                  (Printf.sprintf "fault spec: bad value %S for %s" v key)
          in
          let us_v () = Result.map (fun f -> f *. 1e3) (float_v ()) in
          match key with
          | "seed" -> (
              match Int64.of_string_opt v with
              | Some s -> Result.Ok { spec with seed = s }
              | None ->
                  Result.Error (Printf.sprintf "fault spec: bad seed %S" v))
          | "read_err" | "re" ->
              Result.map (fun f -> { spec with read_error_rate = f }) (rate_v ())
          | "write_err" | "we" ->
              Result.map (fun f -> { spec with write_error_rate = f }) (rate_v ())
          | "spike" ->
              Result.map (fun f -> { spec with spike_rate = f }) (rate_v ())
          | "spike_factor" ->
              Result.map (fun f -> { spec with spike_factor = f }) (factor_v ())
          | "spike_us" ->
              Result.map (fun f -> { spec with spike_duration_ns = f }) (us_v ())
          | "stall" ->
              Result.map (fun f -> { spec with stall_rate = f }) (rate_v ())
          | "stall_us" ->
              Result.map (fun f -> { spec with stall_ns = f }) (us_v ())
          | "full" ->
              Result.map (fun f -> { spec with full_rate = f }) (rate_v ())
          | "full_us" ->
              Result.map (fun f -> { spec with full_duration_ns = f }) (us_v ())
          | _ -> Result.Error (Printf.sprintf "fault spec: unknown key %S" key)))

(* One phase(...) field: the usual spec syntax plus a phase duration
   ([dur_us], [dur_ms] or [dur_s]); omitting the duration makes the
   phase hold to the end of the run (legal for the last phase only). *)
let parse_phase inner =
  let fields = split_fields inner in
  List.fold_left
    (fun acc field ->
      Result.bind acc (fun (spec, dur) ->
          let dur_of scale =
            let i = String.index field '=' in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            match float_of_string_opt v with
            | Some f when f > 0.0 -> Result.Ok (spec, f *. scale)
            | _ ->
                Result.Error
                  (Printf.sprintf "fault spec: bad phase duration %S" field)
          in
          if String.length field >= 7 && String.sub field 0 7 = "dur_us=" then
            dur_of 1e3
          else if String.length field >= 7 && String.sub field 0 7 = "dur_ms="
          then dur_of 1e6
          else if String.length field >= 6 && String.sub field 0 6 = "dur_s="
          then dur_of 1e9
          else
            Result.map (fun s -> (s, dur)) (apply_spec_field spec field)))
    (Result.Ok (zero, infinity))
    fields

let validate_plan (p : plan) =
  let n = List.length p.phases in
  if n = 0 then Result.Error "fault spec: empty plan"
  else
    let bad_inner =
      List.exists
        (fun (i, (_, d)) -> d = infinity && (p.cycle || i < n - 1))
        (List.mapi (fun i ph -> (i, ph)) p.phases)
    in
    if bad_inner then
      Result.Error
        (if p.cycle then
           "fault spec: a cycling plan needs a duration on every phase"
         else "fault spec: only the last phase may omit its duration")
    else Result.Ok p

let parse str =
  let is_phase f = String.length f > 6 && String.sub f 0 6 = "phase(" in
  let fields = split_fields (String.trim str) in
  let step acc field =
    Result.bind acc (fun (p : plan) ->
        if field = "" then Result.Ok p
        else if field = "cycle" then Result.Ok { p with cycle = true }
        else if field = "wearout" then Result.Ok wearout
        else if field = "bursty" then Result.Ok bursty
        else if is_phase field then begin
          if String.get field (String.length field - 1) <> ')' then
            Result.Error
              (Printf.sprintf "fault spec: unterminated phase in %S" field)
          else
            let inner = String.sub field 6 (String.length field - 7) in
            Result.map
              (fun ph ->
                match p.phases with
                (* The implicit all-zero head phase is replaced by the
                   first explicit phase(...) field. *)
                | [ (s, d) ] when s = zero && d = infinity && not p.cycle ->
                    { p with phases = [ ph ] }
                | phases -> { p with phases = phases @ [ ph ] })
              (parse_phase inner)
        end
        else
          (* A bare preset or key=value applies to every phase: that is
             what makes "wearout,seed=7" reseed the whole schedule. *)
          List.fold_left
            (fun acc (s, d) ->
              Result.bind acc (fun phases ->
                  Result.map
                    (fun s' -> phases @ [ (s', d) ])
                    (apply_spec_field s field)))
            (Result.Ok []) p.phases
          |> Result.map (fun phases -> { p with phases }))
  in
  Result.bind
    (List.fold_left step (Result.Ok (static zero)) fields)
    validate_plan

type outcome =
  | Ok
  | Transient_error
  | Spike of float
  | Stall of float
  | Device_full

type stats = {
  read_errors : int;
  write_errors : int;
  spiked_ops : int;
  stalls : int;
  enospc_rejections : int;
  retries : int;
  backoff_ns : float;
  penalty_ns : float;
  exhausted_retries : int;
  watchdog_timeouts : int;
  recomputes : int;
  h2_degraded_events : int;
  h2_objects_deferred : int;
}

let zero_stats =
  {
    read_errors = 0;
    write_errors = 0;
    spiked_ops = 0;
    stalls = 0;
    enospc_rejections = 0;
    retries = 0;
    backoff_ns = 0.0;
    penalty_ns = 0.0;
    exhausted_retries = 0;
    watchdog_timeouts = 0;
    recomputes = 0;
    h2_degraded_events = 0;
    h2_objects_deferred = 0;
  }

type t = {
  plan : (spec * float) array;
  cycle : bool;
  prng : Prng.t;
  (* Backoff jitter draws from its own stream, derived from the plan
     seed: jittered retries must not perturb the injected fault
     sequence, which stays a pure function of the plan seed. *)
  jitter_prng : Prng.t;
  enabled : bool;
  mutable phase_idx : int;
  mutable phase_end_ns : float;  (* absolute sim time the phase ends *)
  mutable phase_changes : int;
  (* Episode state: spikes slow every op and device-full windows reject
     every write until the window's simulated end time passes. *)
  mutable spike_until_ns : float;
  mutable full_until_ns : float;
  mutable s : stats;
}

let spec_enabled spec =
  spec.read_error_rate > 0.0
  || spec.write_error_rate > 0.0
  || spec.spike_rate > 0.0
  || spec.stall_rate > 0.0
  || spec.full_rate > 0.0

let plan_seed (p : plan) =
  match p.phases with (s, _) :: _ -> s.seed | [] -> zero.seed

let create_plan (p : plan) =
  match validate_plan p with
  | Result.Error msg -> invalid_arg ("Fault.create_plan: " ^ msg)
  | Result.Ok p ->
      let phases = Array.of_list p.phases in
      let seed = plan_seed p in
      {
        plan = phases;
        cycle = p.cycle;
        prng = Prng.create seed;
        jitter_prng = Prng.create (Int64.logxor seed 0x6A09E667F3BCC909L);
        enabled = Array.exists (fun (s, _) -> spec_enabled s) phases;
        phase_idx = 0;
        phase_end_ns = snd phases.(0);
        phase_changes = 0;
        spike_until_ns = neg_infinity;
        full_until_ns = neg_infinity;
        s = zero_stats;
      }

let create spec = create_plan (static spec)

(* Advance the active phase up to simulated time [now_ns]. Cycling plans
   wrap back to phase 0; terminal plans hold their last phase forever. *)
let refresh t ~now_ns =
  while now_ns >= t.phase_end_ns do
    let last = Array.length t.plan - 1 in
    if t.phase_idx >= last && not t.cycle then t.phase_end_ns <- infinity
    else begin
      t.phase_idx <- (if t.phase_idx >= last then 0 else t.phase_idx + 1);
      t.phase_end_ns <- t.phase_end_ns +. snd t.plan.(t.phase_idx);
      t.phase_changes <- t.phase_changes + 1
    end
  done

let active_spec t = fst t.plan.(t.phase_idx)

let spec t = active_spec t

let phase_index t = t.phase_idx

let phase_changes t = t.phase_changes

let enabled t = t.enabled

let jitter_unit t = Prng.float t.jitter_prng 1.0

let in_spike t ~now_ns = now_ns < t.spike_until_ns

let draw t rate = rate > 0.0 && Prng.float t.prng 1.0 < rate

let spike_outcome t =
  t.s <- { t.s with spiked_ops = t.s.spiked_ops + 1 };
  Spike (active_spec t).spike_factor

let on_read t ~now_ns =
  if not t.enabled then Ok
  else begin
    refresh t ~now_ns;
    let sp = active_spec t in
    if draw t sp.read_error_rate then begin
      t.s <- { t.s with read_errors = t.s.read_errors + 1 };
      Transient_error
    end
    else if in_spike t ~now_ns then spike_outcome t
    else if draw t sp.spike_rate then begin
      t.spike_until_ns <- now_ns +. sp.spike_duration_ns;
      spike_outcome t
    end
    else Ok
  end

let on_write t ~now_ns =
  if not t.enabled then Ok
  else begin
    refresh t ~now_ns;
    let sp = active_spec t in
    if now_ns < t.full_until_ns then begin
      t.s <- { t.s with enospc_rejections = t.s.enospc_rejections + 1 };
      Device_full
    end
    else if draw t sp.full_rate then begin
      t.full_until_ns <- now_ns +. sp.full_duration_ns;
      t.s <- { t.s with enospc_rejections = t.s.enospc_rejections + 1 };
      Device_full
    end
    else if draw t sp.write_error_rate then begin
      t.s <- { t.s with write_errors = t.s.write_errors + 1 };
      Transient_error
    end
    else if draw t sp.stall_rate then begin
      t.s <- { t.s with stalls = t.s.stalls + 1 };
      Stall sp.stall_ns
    end
    else if in_spike t ~now_ns then spike_outcome t
    else if draw t sp.spike_rate then begin
      t.spike_until_ns <- now_ns +. sp.spike_duration_ns;
      spike_outcome t
    end
    else Ok
  end

let note_retry t = t.s <- { t.s with retries = t.s.retries + 1 }

let note_backoff t ns = t.s <- { t.s with backoff_ns = t.s.backoff_ns +. ns }

let note_penalty t ns = t.s <- { t.s with penalty_ns = t.s.penalty_ns +. ns }

let note_exhausted t =
  t.s <- { t.s with exhausted_retries = t.s.exhausted_retries + 1 }

let note_watchdog t =
  t.s <- { t.s with watchdog_timeouts = t.s.watchdog_timeouts + 1 }

let note_recompute t = t.s <- { t.s with recomputes = t.s.recomputes + 1 }

let note_h2_degraded t ?(objects = 0) () =
  t.s <-
    {
      t.s with
      h2_degraded_events = t.s.h2_degraded_events + 1;
      h2_objects_deferred = t.s.h2_objects_deferred + objects;
    }

let stats t = t.s

let faults_injected s =
  s.read_errors + s.write_errors + s.spiked_ops + s.stalls
  + s.enospc_rejections

let degraded s =
  faults_injected s > 0
  || s.exhausted_retries > 0
  || s.watchdog_timeouts > 0
  || s.recomputes > 0
  || s.h2_degraded_events > 0

let pp_stats f s =
  Format.fprintf f
    "faults injected %d (read err %d, write err %d, spiked %d, stalls %d, \
     enospc %d) | retries %d, backoff %.3fms, penalty %.3fms | exhausted %d, \
     watchdog timeouts %d, recomputes %d | H2 degraded events %d (%d objects \
     deferred)"
    (faults_injected s) s.read_errors s.write_errors s.spiked_ops s.stalls
    s.enospc_rejections s.retries (s.backoff_ns /. 1e6) (s.penalty_ns /. 1e6)
    s.exhausted_retries s.watchdog_timeouts s.recomputes s.h2_degraded_events
    s.h2_objects_deferred
