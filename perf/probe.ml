(* Host-time probe for the traced pass.

   Spans are taken from outside the simulator: around the calls the
   benchmark makes into each layer (setup constructors, drivers), and
   through the two hook points the runtime exposes, the GC safepoint
   hook and the placement policy. A span's self time is its duration
   minus the spans it encloses, so the layer self times of a pass add up
   to the part of the pass's wall time the probe covers.

   The probe is inert on the simulation: it reads the host clock and
   host GC counters only, and the wrapped hooks call through to the
   originals unchanged. The traced pass proves this by reproducing the
   untraced digests. *)

module Rt = Th_psgc.Rt
module Policy = Th_policy.Policy
module Event = Th_trace.Event

type layer =
  | Setup  (** [Th_baselines.Setups] constructors *)
  | Driver  (** a workload driver's run, minus the timed spans inside *)
  | Minor  (** a minor collection, safepoint to safepoint *)
  | Major  (** a major collection, safepoint to safepoint *)
  | Select  (** [Policy.select] *)
  | Observe  (** [Policy.observe], aggregated without a span each *)
  | Verify  (** the hook chain installed before the monitor *)
  | Hooks  (** the rest of the safepoint hook chain: the monitor *)

let layers = [ Setup; Driver; Minor; Major; Select; Observe; Verify; Hooks ]

let index = function
  | Setup -> 0
  | Driver -> 1
  | Minor -> 2
  | Major -> 3
  | Select -> 4
  | Observe -> 5
  | Verify -> 6
  | Hooks -> 7

let metric = function
  | Setup -> "baselines.setup_s"
  | Driver -> "workloads.self_s"
  | Minor -> "psgc.minor_s"
  | Major -> "psgc.major_s"
  | Select -> "policy.select_s"
  | Observe -> "policy.observe_s"
  | Verify -> "verify.check_s"
  | Hooks -> "resilience.monitor_s"

let is_gc = function
  | Minor | Major -> true
  | Setup | Driver | Select | Observe | Verify | Hooks -> false

let max_depth = 32

type t = {
  self_ns : float array;  (** per layer *)
  calls : int array;  (** per layer *)
  layer_at : layer array;  (** the open spans, by depth *)
  start_at : float array;
  child_at : float array;  (** time of closed spans nested at this depth *)
  mutable depth : int;
  mutable gc_depth : int;
  mutable gc_words0 : float;
  mutable gc_alloc_words : float;
      (** host minor words allocated inside GC spans *)
  mutable events : Event.t list;  (** newest first *)
  origin : float;
  lane : int;
}

let now () = Int64.to_float (Th_exec.Wall.now_ns ())

let create ~lane ~origin =
  let n = List.length layers in
  {
    self_ns = Array.make n 0.0;
    calls = Array.make n 0;
    layer_at = Array.make max_depth Setup;
    start_at = Array.make max_depth 0.0;
    child_at = Array.make max_depth 0.0;
    depth = 0;
    gc_depth = 0;
    gc_words0 = 0.0;
    gc_alloc_words = 0.0;
    events = [];
    origin;
    lane;
  }

let self_s t layer = t.self_ns.(index layer) /. 1e9

let calls t layer = t.calls.(index layer)

let host_alloc_words t = t.gc_alloc_words

let events t = List.rev t.events

let emit t ~ts ~kind ~cat ~name ~args =
  t.events <-
    { Event.ts = ts -. t.origin; lane = t.lane; kind; cat; name; args }
    :: t.events

let enter t layer =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Probe.enter: span stack overflow";
  if is_gc layer then begin
    if t.gc_depth = 0 then t.gc_words0 <- Gc.minor_words ();
    t.gc_depth <- t.gc_depth + 1
  end;
  t.layer_at.(d) <- layer;
  t.child_at.(d) <- 0.0;
  t.depth <- d + 1;
  t.start_at.(d) <- now ()

(* Close the innermost open span. *)
let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Probe.leave: no open span";
  let layer = t.layer_at.(d) in
  let i = index layer in
  let start = t.start_at.(d) in
  let dur = stop -. start in
  t.self_ns.(i) <- t.self_ns.(i) +. dur -. t.child_at.(d);
  t.calls.(i) <- t.calls.(i) + 1;
  t.depth <- d;
  if d > 0 then t.child_at.(d - 1) <- t.child_at.(d - 1) +. dur;
  let complete ~cat ~name =
    emit t ~ts:start ~kind:(Event.Complete dur) ~cat ~name ~args:[]
  in
  let close_gc name =
    t.gc_depth <- t.gc_depth - 1;
    if t.gc_depth = 0 then
      t.gc_alloc_words <-
        t.gc_alloc_words +. (Gc.minor_words () -. t.gc_words0);
    complete ~cat:"gc" ~name
  in
  match layer with
  | Minor -> close_gc "minor_gc"
  | Major -> close_gc "major_gc"
  | Setup -> complete ~cat:"setup" ~name:"setup"
  | Driver | Select | Observe | Verify | Hooks -> ()

(* Close spans down to [depth]: a span an exception cut short (an OOM
   inside a collection) ends where the enclosing span ends. *)
let unwind t depth =
  while t.depth > depth do
    leave t
  done

let span t layer f =
  let depth = t.depth in
  enter t layer;
  match f () with
  | v ->
      unwind t depth;
      v
  | exception e ->
      unwind t depth;
      raise e

(* A driver run becomes a span of its own, followed by a counter sample
   of the policy calls it made. *)
let run t ~name f =
  let start = now () in
  let obs0 = calls t Observe and sel0 = calls t Select in
  let obs_ns0 = t.self_ns.(index Observe) in
  let v = span t Driver f in
  let stop = now () in
  emit t ~ts:start ~kind:(Event.Complete (stop -. start)) ~cat:"run" ~name
    ~args:[];
  emit t ~ts:stop ~kind:Event.Counter ~cat:"policy" ~name:"policy"
    ~args:
      [
        ("observe_n", Event.Int (calls t Observe - obs0));
        ("select_n", Event.Int (calls t Select - sel0));
        ( "observe_ms",
          Event.Float ((t.self_ns.(index Observe) -. obs_ns0) /. 1e6) );
      ];
  v

let observe t f obs =
  let start = now () in
  f obs;
  let dur = now () -. start in
  let i = index Observe in
  t.self_ns.(i) <- t.self_ns.(i) +. dur;
  t.calls.(i) <- t.calls.(i) + 1;
  let d = t.depth - 1 in
  if d >= 0 then t.child_at.(d) <- t.child_at.(d) +. dur

(* The same policy, with its two callbacks timed. *)
let wrap_policy t (p : Policy.t) =
  Policy.make ~name:p.Policy.name ~trace_decisions:p.Policy.trace_decisions
    ~select:(fun ctx ~roots ->
      span t Select (fun () -> p.Policy.select ctx ~roots))
    ~observe:(observe t p.Policy.observe)
    ()

let chain hook sp = match hook with Some f -> f sp | None -> ()

(* Time the hook chain installed so far as the verifier. Installed right
   after [Verify.attach], before the monitor chains onto it. *)
let wrap_verify t (rt : Rt.t) =
  let inner = rt.Rt.safepoint_hook in
  rt.Rt.safepoint_hook <-
    Some (fun sp -> span t Verify (fun () -> chain inner sp))

(* Outermost wrapper, installed last. A collection's span runs from the
   end of its [Before_*] hooks to the start of its [After_*] hooks, so
   verifier and monitor time stays out of GC time. *)
let wrap_safepoints t (rt : Rt.t) =
  let inner = rt.Rt.safepoint_hook in
  let hooks sp = span t Hooks (fun () -> chain inner sp) in
  rt.Rt.safepoint_hook <-
    Some
      (fun sp ->
        match sp with
        | Rt.Before_minor ->
            hooks sp;
            enter t Minor
        | Rt.Before_major ->
            hooks sp;
            enter t Major
        | Rt.After_minor | Rt.After_major ->
            leave t;
            hooks sp)
