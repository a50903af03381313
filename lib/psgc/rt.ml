(* Runtime state shared by the mutator facade ({!Runtime}) and the
   collector ({!Ps_gc}). Kept in its own module to break the mutual
   dependency between allocation (which triggers GC) and collection. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2

exception Out_of_memory of string

(* Raised in place of the old [assert false] dead branches: an object's
   location contradicts the runtime configuration or collection phase
   (e.g. an [In_h2] object with no H2 heap attached). Carries enough
   context to identify the object and the phase that tripped over it. *)
exception Invalid_heap_state of { object_id : int; phase : string }

let invalid_heap_state ~object_id ~phase =
  raise (Invalid_heap_state { object_id; phase })

type collector = Ps | Ps_jdk11 | G1

(* How minor GC finds old-to-young references. [Card_index] (default)
   visits only the dirty cards' runs of the address-sorted old
   generation, located through the card table's object-start index;
   [Linear_scan] sweeps every old-generation object, checking its card —
   the original O(#old objects) implementation, kept as a
   debug/equivalence oracle. Both visit the same objects in the same
   (address) order, so they charge identical simulated time. *)
type rset_mode = Card_index | Linear_scan

(* Pending move policy decided at the end of the previous major GC. *)
type move_pressure = Th_policy.Policy.pressure =
  | No_pressure
  | Move_all_tagged
  | Move_until_low

(* GC safepoints at which an external observer (the Th_verify sanitizer)
   may inspect the heap. The hook lives here, not in Th_verify, so the
   collector never depends on the verifier: Ps_gc announces the
   safepoint and whatever is installed — nothing, by default — runs. *)
type safepoint = Before_minor | After_minor | Before_major | After_major

type t = {
  clock : Clock.t;
  costs : Costs.t;
  heap : H1_heap.t;
  roots : Roots.t;
  h2 : H2.t option;
  profile : Cost_profile.t;
  collector : collector;
  rset_mode : rset_mode;
  stats : Gc_stats.t;
  mutable mark_epoch : int;
  mutable closure_epoch : int;
  mutable pressure : move_pressure;
  mutable in_gc : bool;
  mutable barrier_checks : int;  (* post-write barriers executed *)
  mutable g1_humongous_waste : int;  (* wasted bytes in humongous regions *)
  g1_region_size : int;
  mutable safepoint_hook : (safepoint -> unit) option;
  (* Consulted once per major GC before the move-to-H2 passes; [false]
     suppresses moving (tagged roots stay in H1 for this cycle). The
     Th_resilience circuit breaker installs this — the collector itself
     never decides to stop moving. *)
  mutable h2_move_gate : (unit -> bool) option;
  (* Decides which tagged roots move at each major GC and how they
     group into H2 regions. The default reproduces the paper's
     high/low-threshold behavior bit-for-bit; the collector keeps the
     validity guards and the pressure budget, so a policy can only
     choose among safe moves, never invent unsafe ones. *)
  mutable policy : Th_policy.Policy.t;
  (* The major GC's marking stack, sized on first use (see rt.mli). *)
  mutable mark_stack : Obj_.t array;
}

let create ?(collector = Ps) ?(profile = Cost_profile.dram)
    ?(rset_mode = Card_index) ?h2 ?(policy = Th_policy.Policy.threshold)
    ~clock ~costs ~heap () =
  {
    clock;
    costs;
    heap;
    roots = Roots.create ();
    h2;
    profile;
    collector;
    rset_mode;
    stats = Gc_stats.create ();
    mark_epoch = 0;
    closure_epoch = 0;
    pressure = No_pressure;
    in_gc = false;
    barrier_checks = 0;
    g1_humongous_waste = 0;
    (* 512 regions: reproduces the array-to-region size ratio of G1 on
       the paper's heaps (partition arrays spanning a few regions). *)
    g1_region_size = max (Size.kib 64) (H1_heap.heap_bytes heap / 512);
    safepoint_hook = None;
    h2_move_gate = None;
    policy;
    mark_stack = [||];
  }

let h2_moves_allowed t =
  match t.h2_move_gate with None -> true | Some gate -> gate ()

let safepoint_name = function
  | Before_minor -> "before_minor"
  | After_minor -> "after_minor"
  | Before_major -> "before_major"
  | After_major -> "after_major"

(* Trace emission happens here at the announcement point, not through the
   single-slot [safepoint_hook] — the hook stays free for the Th_verify
   sanitizer. Safepoints double as the sampling points for the cumulative
   device / page-cache / occupancy counters: cheap, already at a
   consistent heap state, and frequent enough to plot. *)
let trace_safepoint t p =
  match Clock.tracer t.clock with
  | None -> ()
  | Some tr -> (
      let ts = Clock.now_ns t.clock in
      Th_trace.Recorder.instant tr ~ts ~cat:"safepoint" ~name:(safepoint_name p)
        ();
      match t.h2 with
      | None -> ()
      | Some h2 ->
          let d = Th_device.Device.stats (Th_core.H2.device h2) in
          Th_trace.Recorder.counter tr ~ts ~cat:"counter" ~name:"device_io"
            ~args:
              [
                ("bytes_read", Th_trace.Event.Int d.Th_device.Device.bytes_read);
                ( "bytes_written",
                  Th_trace.Event.Int d.Th_device.Device.bytes_written );
                ("read_ops", Th_trace.Event.Int d.Th_device.Device.read_ops);
                ("write_ops", Th_trace.Event.Int d.Th_device.Device.write_ops);
              ];
          let c =
            Th_device.Page_cache.stats (Th_core.H2.page_cache h2)
          in
          Th_trace.Recorder.counter tr ~ts ~cat:"counter" ~name:"page_cache"
            ~args:
              [
                ("hits", Th_trace.Event.Int c.Th_device.Page_cache.hits);
                ("misses", Th_trace.Event.Int c.Th_device.Page_cache.misses);
                ( "evictions",
                  Th_trace.Event.Int c.Th_device.Page_cache.evictions );
                ( "writebacks",
                  Th_trace.Event.Int c.Th_device.Page_cache.writebacks );
              ];
          Th_trace.Recorder.counter tr ~ts ~cat:"counter"
            ~name:"h1_old_occupancy"
            ~args:
              [
                ( "fraction",
                  Th_trace.Event.Float (H1_heap.old_occupancy t.heap) );
              ])

let safepoint t p =
  trace_safepoint t p;
  match t.safepoint_hook with None -> () | Some f -> f p

let teraheap_enabled t = t.h2 <> None

let charge t cat ns = Clock.advance t.clock cat ns

(* PS's old-generation (major) collection is single-threaded in OpenJDK8,
   parallel in the JDK11/G1 configurations. *)
let major_threads t =
  match t.collector with
  | Ps -> t.costs.Costs.old_gc_threads
  | Ps_jdk11 | G1 -> t.costs.Costs.gc_threads
