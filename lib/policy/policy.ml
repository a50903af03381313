(* First-class H2 placement policies.

   The major GC hard-coded two decisions: *which tagged roots move this
   cycle* and *in what order/grouping they stream into H2 regions*. A
   policy answers both through [select]; everything else — closure
   computation, the pressure budget, promotion-failure retention, the
   resilience gate — stays in the collector, so every policy inherits
   the same safety envelope.

   Policies learn from the mutator through [observe]: the runtime feeds
   tag/advice/access/move/death events (host-side bookkeeping only — an
   observation never advances the simulated clock, draws randomness, or
   emits trace events, so installing a policy cannot perturb the
   simulation it watches). Policies measure time in *mutator operations*
   (observed accesses), a logical clock that is identical across runs of
   the same workload regardless of GC cadence — which is what makes the
   two-pass oracle's future knowledge transferable between passes.

   Each policy value owns unsynchronised mutable state: create one per
   runtime, inside the benchmark cell that uses it (the analyzer's
   escape-capture rule watches [make] for captured mutable locals). *)

module Obj_ = Th_objmodel.Heap_object
module H2 = Th_core.H2
module Page_cache = Th_device.Page_cache
module Vec = Th_sim.Vec

(* [Advised] picks move unconditionally (their group is immutable, per
   the h2_move contract); [Budgeted] picks are pressure moves, subject
   to the collector's low/high-threshold budget check before each
   closure. *)
type move_class = Advised | Budgeted

type pick = { root : Obj_.t; cls : move_class; group : int }
(** [group] keys the H2 allocator bucket the root's closure streams
    into; defaults to the root's label. Policies that co-locate labels
    (gang placement) return a shared group key. *)

(* The collector's pending move policy, decided at the end of the
   previous major GC; [Th_psgc.Rt.move_pressure] re-exports it. *)
type pressure = No_pressure | Move_all_tagged | Move_until_low

type ctx = {
  epoch : int;  (* current mark epoch *)
  pressure : pressure;  (* pending move pressure for this cycle *)
  live_bytes : int;  (* marked-live H1 bytes this cycle *)
  old_capacity : int;  (* old-generation capacity, bytes *)
  h2 : H2.t;  (* advice table, thresholds, page-cache stats *)
}

type obs =
  | Tagged of { label : int; site : int; bytes : int }
  | Advice of { label : int }
  | Access of {
      label : int;
      site : int;
      bytes : int;
      write : bool;
      in_h2 : bool;
    }
  | Moved of { label : int; site : int; bytes : int }
  | Death of { label : int; site : int; bytes : int }
  | Major_start of { epoch : int }

type t = {
  name : string;
  select : ctx -> roots:Obj_.t list -> pick list;
  observe : obs -> unit;
  trace_decisions : bool;
      (* emit a policy/select trace instant per major GC; off for the
         default policy so pre-policy trace goldens stay byte-identical *)
}

let make ~name ?(trace_decisions = true) ~select ~observe () =
  { name; select; observe; trace_decisions }

(* ------------------------------------------------------------------ *)
(* Threshold: the paper's high/low-threshold behavior, bit-for-bit.    *)

let is_advised ctx (r : Obj_.t) =
  r.Obj_.label >= 0 && H2.move_advised ctx.h2 ~label:r.Obj_.label

let own_group cls (r : Obj_.t) = { root = r; cls; group = r.Obj_.label }

(* Pass 1 of the old collector: advised roots in tag order. Pass 2:
   under pressure, unadvised roots in tag order, budget-checked. The
   collector re-applies the label/mark/closure-mark guards, so this
   selection is equivalent to the former inline passes. *)
let threshold_select ctx ~roots =
  let advised = List.map (own_group Advised) (List.filter (is_advised ctx) roots) in
  let forced =
    if ctx.pressure = No_pressure then []
    else
      List.map (own_group Budgeted)
        (List.filter
           (fun (r : Obj_.t) -> r.Obj_.label >= 0 && not (is_advised ctx r))
           roots)
  in
  advised @ forced

let threshold =
  {
    name = "threshold";
    select = threshold_select;
    observe = ignore;
    trace_decisions = false;
  }

(* ------------------------------------------------------------------ *)
(* Lifetime (Deca-style): replay an allocation-site profile.           *)

(* A site is a device-placement candidate when its groups outlive this
   many mutator operations on average; below it, moving wastes device
   writes on data about to die. *)
let lifetime_floor_ops = 64

(* ... and when the mutator rarely touches its groups after tagging
   (read-backs per tag at or below this). *)
let lifetime_max_reads_per_tag = 0.5

let lifetime profile =
  let stats (r : Obj_.t) = Profile.find profile ~site:r.Obj_.site in
  let reads r =
    match stats r with Some s -> Profile.reads_per_tag s | None -> infinity
  in
  let eager r =
    match stats r with
    | Some s ->
        Profile.avg_lifetime_ops s >= lifetime_floor_ops
        && Profile.reads_per_tag s <= lifetime_max_reads_per_tag
    | None -> false
  in
  let coldest_first l =
    List.stable_sort (fun a b -> Float.compare (reads a) (reads b)) l
  in
  let select ctx ~roots =
    let candidates = List.filter (fun (r : Obj_.t) -> r.Obj_.label >= 0) roots in
    (* Advised groups are immutable — always safe; profiled cold,
       long-lived sites move eagerly without waiting for advice. *)
    let up = List.filter (fun r -> is_advised ctx r || eager r) candidates in
    let rest = List.filter (fun r -> not (is_advised ctx r || eager r)) candidates in
    List.map (own_group Advised) (coldest_first up)
    @
    if ctx.pressure = No_pressure then []
    else List.map (own_group Budgeted) (coldest_first rest)
  in
  { name = "lifetime"; select; observe = ignore; trace_decisions = true }

(* The profiling pre-run: behaves exactly like [threshold] while
   filling a {!Profile.t} from the observation stream. *)
let profiler () =
  let prof = Profile.create () in
  let ops = ref 0 in
  let tag_op : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let observe = function
    | Tagged { label; site; _ } ->
        let s = Profile.touch prof ~site in
        s.Profile.tags <- s.Profile.tags + 1;
        Hashtbl.replace tag_op label !ops
    | Access { label; site; bytes; _ } ->
        incr ops;
        if site >= 0 && Hashtbl.mem tag_op label then begin
          let s = Profile.touch prof ~site in
          s.Profile.accesses_after_tag <- s.Profile.accesses_after_tag + 1;
          s.Profile.access_bytes <- s.Profile.access_bytes + bytes
        end
    | Moved { site; _ } ->
        if site >= 0 then begin
          let s = Profile.touch prof ~site in
          s.Profile.moves <- s.Profile.moves + 1
        end
    | Death { label; site; _ } ->
        if site >= 0 then begin
          let s = Profile.touch prof ~site in
          s.Profile.deaths <- s.Profile.deaths + 1;
          let born =
            match Hashtbl.find_opt tag_op label with
            | Some op -> op
            | None -> !ops
          in
          s.Profile.lifetime_ops <- s.Profile.lifetime_ops + (!ops - born)
        end
    | Advice _ | Major_start _ -> ()
  in
  ( {
      name = "profiler";
      select = threshold_select;
      observe;
      trace_decisions = false;
    },
    prof )

(* ------------------------------------------------------------------ *)
(* GangLocality (Gang-GC-style): co-accessed labels share regions.     *)

let gang_locality () =
  (* Union-find over labels; the representative (smallest label of the
     gang, so group keys are order-independent) is the placement group. *)
  let parent : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let rec find l =
    match Hashtbl.find_opt parent l with
    | None -> l
    | Some p ->
        if p = l then l
        else begin
          let r = find p in
          Hashtbl.replace parent l r;
          r
        end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if ra < rb then Hashtbl.replace parent rb ra
      else Hashtbl.replace parent ra rb
  in
  let edge_hits : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_label = ref (-1) in
  let observe = function
    | Access { label; _ } ->
        let prev = !last_label in
        if prev >= 0 && prev <> label then begin
          let key = (min prev label, max prev label) in
          let n =
            1 + Option.value (Hashtbl.find_opt edge_hits key) ~default:0
          in
          Hashtbl.replace edge_hits key n;
          (* One adjacency may be a fluke; a repeat makes an affinity
             edge and fuses the gangs. *)
          if n = 2 then union prev label
        end;
        last_label := label
    | Tagged _ | Advice _ | Moved _ | Death _ | Major_start _ -> ()
  in
  let select ctx ~roots =
    let with_group cls (r : Obj_.t) =
      { root = r; cls; group = find r.Obj_.label }
    in
    let by_gang picks =
      (* Gang members stream adjacently into their shared open region;
         stable sort keeps tag order within and between gangs. *)
      List.stable_sort (fun a b -> Int.compare a.group b.group) picks
    in
    let advised =
      by_gang (List.map (with_group Advised) (List.filter (is_advised ctx) roots))
    in
    let forced =
      if ctx.pressure = No_pressure then []
      else
        by_gang
          (List.map (with_group Budgeted)
             (List.filter
                (fun (r : Obj_.t) ->
                  r.Obj_.label >= 0 && not (is_advised ctx r))
                roots))
    in
    advised @ forced
  in
  { name = "gang"; select; observe; trace_decisions = true }

(* ------------------------------------------------------------------ *)
(* TwoQ: frequency/recency scoring fed by the page-cache model.        *)

let two_q () =
  let ops = ref 0 in
  let last_access : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let freq : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let observe = function
    | Access { label; _ } ->
        incr ops;
        Hashtbl.replace last_access label !ops;
        Hashtbl.replace freq label
          (1 + Option.value (Hashtbl.find_opt freq label) ~default:0)
    | Tagged _ | Advice _ | Moved _ | Death _ | Major_start _ -> ()
  in
  let select ctx ~roots =
    (* Recency window: when the page cache is already thrashing (misses
       dominate), protect a longer tail of recently-touched labels from
       device placement. *)
    let pc = Page_cache.stats (H2.page_cache ctx.h2) in
    let total = pc.Page_cache.hits + pc.Page_cache.misses in
    let window =
      if total > 0 && pc.Page_cache.misses * 2 > total then !ops / 4
      else !ops / 8
    in
    let recency (r : Obj_.t) =
      Option.value (Hashtbl.find_opt last_access r.Obj_.label) ~default:0
    in
    let frequency (r : Obj_.t) =
      Option.value (Hashtbl.find_opt freq r.Obj_.label) ~default:0
    in
    let hot r = !ops - recency r < window in
    let coldest_first l =
      List.stable_sort
        (fun a b ->
          match Int.compare (frequency a) (frequency b) with
          | 0 -> Int.compare (recency a) (recency b)
          | c -> c)
        l
    in
    let candidates = List.filter (fun (r : Obj_.t) -> r.Obj_.label >= 0) roots in
    let cold_advised =
      coldest_first (List.filter (fun r -> is_advised ctx r && not (hot r)) candidates)
    in
    (* 2Q's deviation from the paper policy: hot labels stay in H1 even
       when advised, until pressure forces them out (hottest last). *)
    let forced =
      if ctx.pressure = No_pressure then []
      else
        coldest_first
          (List.filter
             (fun r -> (not (is_advised ctx r)) || hot r)
             candidates)
    in
    List.map (own_group Advised) cold_advised
    @ List.map (own_group Budgeted) forced
  in
  { name = "2q"; select; observe; trace_decisions = true }

(* ------------------------------------------------------------------ *)
(* Oracle: two-pass replay with perfect future knowledge.              *)

module Future = struct
  (* Per label: the op-indexed cumulative access-byte curve recorded by
     the first pass. [future_bytes] reads the tail of the curve — the
     read-back traffic a move at logical time [op] would expose. *)
  type per_label = { ops : int Vec.t; cum : int Vec.t; mutable total : int }

  type t = { labels : (int, per_label) Hashtbl.t }

  let create () = { labels = Hashtbl.create 32 }

  let record t ~label ~op ~bytes =
    let e =
      match Hashtbl.find_opt t.labels label with
      | Some e -> e
      | None ->
          let e = { ops = Vec.create (); cum = Vec.create (); total = 0 } in
          Hashtbl.replace t.labels label e;
          e
    in
    e.total <- e.total + bytes;
    Vec.push e.ops op;
    Vec.push e.cum e.total

  let future_bytes t ~label ~op =
    match Hashtbl.find_opt t.labels label with
    | None -> 0
    | Some e ->
        (* Binary search for the first recorded access after [op]. *)
        let n = Vec.length e.ops in
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Vec.get e.ops mid <= op then lo := mid + 1 else hi := mid
        done;
        let consumed = if !lo = 0 then 0 else Vec.get e.cum (!lo - 1) in
        e.total - consumed
end

(* First pass: run the workload under the default policy, recording
   every labelled access against the logical op clock. *)
let recording () =
  let fut = Future.create () in
  let ops = ref 0 in
  let observe = function
    | Access { label; bytes; _ } ->
        incr ops;
        Future.record fut ~label ~op:!ops ~bytes
    | Tagged _ | Advice _ | Moved _ | Death _ | Major_start _ -> ()
  in
  ( {
      name = "recording";
      select = threshold_select;
      observe;
      trace_decisions = false;
    },
    fut )

(* Second pass: at each major GC the oracle moves exactly the labels the
   mutator will never touch again (zero future read-back by
   construction) and, only when pressure forces more, the least-consulted
   of the rest. The logical op clock keeps the two passes aligned: the
   mutator issues the same operations in the same order whatever the GC
   does between them. *)
let oracle fut =
  let ops = ref 0 in
  let observe = function
    | Access _ -> incr ops
    | Tagged _ | Advice _ | Moved _ | Death _ | Major_start _ -> ()
  in
  let select ctx ~roots =
    let future (r : Obj_.t) =
      Future.future_bytes fut ~label:r.Obj_.label ~op:!ops
    in
    let candidates = List.filter (fun (r : Obj_.t) -> r.Obj_.label >= 0) roots in
    let cold = List.filter (fun r -> future r = 0) candidates in
    let warm =
      if ctx.pressure = No_pressure then []
      else
        List.stable_sort
          (fun a b -> Int.compare (future a) (future b))
          (List.filter (fun r -> future r > 0) candidates)
    in
    List.map (own_group Advised) cold @ List.map (own_group Budgeted) warm
  in
  { name = "oracle"; select; observe; trace_decisions = true }
