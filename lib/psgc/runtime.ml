open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module Card_table = Th_minijvm.Card_table
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2

type t = Rt.t

exception Out_of_memory = Rt.Out_of_memory

exception Invalid_heap_state = Rt.Invalid_heap_state

let create = Rt.create

let clock (t : t) = t.Rt.clock

let costs (t : t) = t.Rt.costs

let heap (t : t) = t.Rt.heap

let h2 (t : t) = t.Rt.h2

let stats (t : t) = t.Rt.stats

let roots (t : t) = t.Rt.roots

let teraheap_enabled = Rt.teraheap_enabled

let minor_gc t = if Ps_gc.minor_gc t then Ps_gc.major_gc t

let major_gc t = Ps_gc.major_gc t

(* G1 rounds humongous objects (larger than half a G1 region) up to whole
   regions; the tail of the last region is dead space pinned for the
   object's lifetime (§7.1). *)
let g1_slack (t : t) size =
  let total = size + Obj_.header_bytes + Obj_.label_word_bytes in
  let regions = (total + t.Rt.g1_region_size - 1) / t.Rt.g1_region_size in
  (regions * t.Rt.g1_region_size) - total

(* G1 allocates humongous objects directly in contiguous (old) regions. *)
let g1_humongous (t : t) kind size =
  t.Rt.collector = Rt.G1
  && kind = Obj_.Array_data
  && size + Obj_.header_bytes + Obj_.label_word_bytes
     > t.Rt.g1_region_size / 2

(* The retry sequence shared by [alloc] and [alloc_dead]: [attempt t
   size] runs once per try. An eden-full attempt is retried after a
   minor GC, then after a major GC, then raises; an old-full one is
   retried once after a major GC. [attempt] is a top-level function or a
   closure built once per allocation, so a retry allocates nothing. *)
let rec retry (t : t) attempt ~size tries =
  match attempt t size with
  | H1_heap.Allocated x -> x
  | H1_heap.Eden_full ->
      if tries = 0 then minor_gc t
      else if tries = 1 then major_gc t
      else
        raise
          (Out_of_memory
             (Printf.sprintf "cannot allocate %s in eden (%s)"
                (Size.to_string size)
                (Size.to_string t.Rt.heap.H1_heap.eden_capacity)));
      retry t attempt ~size (tries + 1)
  | H1_heap.Old_full ->
      if tries <= 1 then major_gc t
      else
        raise
          (Out_of_memory
             (Printf.sprintf
                "cannot allocate %s directly in the old generation"
                (Size.to_string size)));
      retry t attempt ~size (tries + 2)

(* Humongous path: contiguous regions straight in the old generation,
   with the last region's tail pinned as slack. *)
let alloc_humongous kind (t : t) size =
  let id = H1_heap.fresh_id t.Rt.heap in
  let o = Obj_.create ~kind ~id ~size () in
  let slack = g1_slack t size in
  o.Obj_.region_slack <- slack;
  t.Rt.g1_humongous_waste <- t.Rt.g1_humongous_waste + slack;
  match H1_heap.old_alloc_addr t.Rt.heap (Obj_.footprint o) with
  | None -> H1_heap.Old_full
  | Some addr ->
      o.Obj_.loc <- Obj_.Old;
      o.Obj_.addr <- addr;
      H1_heap.push_old t.Rt.heap o;
      H1_heap.Allocated o

let alloc (t : t) ?(kind = Obj_.Data) ~size () =
  Rt.charge t Clock.Other t.Rt.costs.Costs.alloc_ns;
  if g1_humongous t kind size then retry t (alloc_humongous kind) ~size 0
  else retry t (fun t size -> H1_heap.alloc t.Rt.heap ~kind ~size) ~size 0

let alloc_dead_once (t : t) size = H1_heap.alloc_dead t.Rt.heap ~size

let alloc_dead (t : t) ~size =
  if H1_heap.pretenured t.Rt.heap ~size then
    (* Pretenured: only a record in the old generation lets a major GC
       free it. [Temp] never takes G1's humongous path. *)
    ignore (alloc t ~kind:Obj_.Temp ~size () : Obj_.t)
  else begin
    Rt.charge t Clock.Other t.Rt.costs.Costs.alloc_ns;
    retry t alloc_dead_once ~size 0
  end

(* Post-write barrier with the TeraHeap reference range check (§4). *)
let barrier (t : t) (parent : Obj_.t) =
  t.Rt.barrier_checks <- t.Rt.barrier_checks + 1;
  (* EnableTeraHeap adds a reference range check to select the H1 or H2
     card table (§4); the measured overhead stays within a few percent. *)
  let mult = if Rt.teraheap_enabled t then 1.35 else 1.0 in
  Rt.charge t Clock.Other (t.Rt.costs.Costs.write_barrier_ns *. mult);
  match parent.Obj_.loc with
  | Obj_.Old ->
      Card_table.mark_dirty t.Rt.heap.H1_heap.cards ~addr:parent.Obj_.addr
  | Obj_.In_h2 -> (
      match t.Rt.h2 with
      | Some h2 -> H2.mutator_write h2 parent
      | None ->
          Rt.invalid_heap_state ~object_id:parent.Obj_.id
            ~phase:"post-write barrier: In_h2 parent without an H2 heap")
  | Obj_.Eden | Obj_.Survivor -> ()
  | Obj_.Freed -> invalid_arg "Runtime.write_ref: store into freed object"

let write_ref t parent child =
  if Obj_.is_freed child then
    invalid_arg "Runtime.write_ref: reference to freed object";
  Obj_.add_ref parent child;
  (* A mutator store can create a new cross-region reference inside H2;
     record it in the dependency lists so region liveness stays sound
     (§3.3 allows objects in any region to refer to each other). *)
  (match (parent.Obj_.loc, child.Obj_.loc, t.Rt.h2) with
  | Obj_.In_h2, Obj_.In_h2, Some h2
    when parent.Obj_.h2_region <> child.Obj_.h2_region ->
      H2.add_dependency h2 ~src_region:parent.Obj_.h2_region
        ~dst_region:child.Obj_.h2_region
  | _ -> ());
  barrier t parent

let unlink_ref t parent child =
  Obj_.remove_ref parent child;
  barrier t parent

let replace_refs t parent children =
  Obj_.clear_refs parent;
  List.iter (Obj_.add_ref parent) children;
  barrier t parent

let mutator_compute (t : t) bytes =
  let ns =
    float_of_int bytes *. t.Rt.costs.Costs.compute_per_byte_ns
    *. t.Rt.profile.Cost_profile.mutator_mult
  in
  Rt.charge t Clock.Other
    (Costs.parallel t.Rt.costs ~threads:t.Rt.costs.Costs.mutator_threads ns)

(* Feed labelled-object accesses to the placement policy. Pure host-side
   bookkeeping (no simulated time, no trace events), reported after the
   access itself so a policy observing its own effects sees consistent
   page-cache statistics. *)
let observe_access (t : t) (o : Obj_.t) ~write =
  if o.Obj_.label >= 0 then
    t.Rt.policy.Th_policy.Policy.observe
      (Th_policy.Policy.Access
         {
           label = o.Obj_.label;
           site = o.Obj_.site;
           bytes = Obj_.total_size o;
           write;
           in_h2 = o.Obj_.loc = Obj_.In_h2;
         })

let read_obj (t : t) o =
  mutator_compute t o.Obj_.size;
  (match (o.Obj_.loc, t.Rt.h2) with
  | Obj_.In_h2, Some h2 -> H2.mutator_read h2 o
  | Obj_.In_h2, None ->
      Rt.invalid_heap_state ~object_id:o.Obj_.id
        ~phase:"read_obj: In_h2 object without an H2 heap"
  | (Obj_.Eden | Obj_.Survivor | Obj_.Old), _ -> ()
  | Obj_.Freed, _ -> invalid_arg "Runtime.read_obj: freed object");
  observe_access t o ~write:false

let update_obj (t : t) o =
  mutator_compute t o.Obj_.size;
  (match (o.Obj_.loc, t.Rt.h2) with
  | Obj_.In_h2, Some h2 -> H2.mutator_write h2 o
  | Obj_.In_h2, None ->
      Rt.invalid_heap_state ~object_id:o.Obj_.id
        ~phase:"update_obj: In_h2 object without an H2 heap"
  | (Obj_.Eden | Obj_.Survivor | Obj_.Old), _ -> ()
  | Obj_.Freed, _ -> invalid_arg "Runtime.update_obj: freed object");
  observe_access t o ~write:true

let compute t ~bytes = mutator_compute t bytes

let add_root (t : t) o = Roots.add t.Rt.roots o

let remove_root (t : t) o = Roots.remove t.Rt.roots o

let barrier_checks (t : t) = t.Rt.barrier_checks

let h2_tag_root (t : t) ?site o ~label =
  match t.Rt.h2 with
  | None -> ()
  | Some h2 ->
      let prev = o.Obj_.label in
      H2.h2_tag_root h2 ?site o ~label;
      (* Report only tags that actually registered (same condition as
         H2.h2_tag_root's): re-tagging an already-labelled or already-
         moved object must not inflate site profiles. *)
      if o.Obj_.loc <> Obj_.In_h2 && prev <> label then
        t.Rt.policy.Th_policy.Policy.observe
          (Th_policy.Policy.Tagged
             { label; site = o.Obj_.site; bytes = Obj_.total_size o })

let h2_move (t : t) ~label =
  match t.Rt.h2 with
  | None -> ()
  | Some h2 ->
      H2.h2_move h2 ~label;
      t.Rt.policy.Th_policy.Policy.observe (Th_policy.Policy.Advice { label })
