open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime
module H1_heap = Th_minijvm.H1_heap
module Page_cache = Th_device.Page_cache
module Serializer = Th_serde.Serializer

type entry_kind = On_heap | Off_heap | In_teraheap

type entry =
  | E_on_heap of Obj_.t
  | E_off_heap of { offset : int; ser : Serializer.serialized }
  | E_teraheap of Obj_.t

type t = {
  ctx : Context.t;
  table : (int * int, entry) Hashtbl.t;
  root : Obj_.t;
  onheap_budget : int;
  mutable onheap_bytes : int;
  mutable offheap_top : int;
  mutable held : Obj_.t list;
      (* deserialized groups pinned until the stage completes *)
}

let create (ctx : Context.t) =
  let rt = ctx.Context.rt in
  let root = Runtime.alloc rt ~size:512 () in
  Runtime.add_root rt root;
  let heap = Runtime.heap rt in
  let heap_bytes = H1_heap.heap_bytes heap in
  let onheap_budget =
    match ctx.Context.mode with
    | Context.Memory_and_ser_offheap { onheap_fraction } ->
        (* The storage pool is bounded both by the configured fraction of
           the heap (50 %, §6) and by what fits in the old generation
           alongside execution memory — Spark's unified memory manager
           evicts blocks to the serialized tier beyond that. *)
        min
          (int_of_float (onheap_fraction *. float_of_int heap_bytes))
          (heap.H1_heap.old_capacity * 50 / 100)
    | Context.Memory_only | Context.Teraheap_cache -> heap_bytes
  in
  {
    ctx;
    table = Hashtbl.create 256;
    root;
    onheap_budget;
    onheap_bytes = 0;
    offheap_top = 0;
    held = [];
  }

let block_instant t ~cat ~name ~rdd_id ~pidx =
  let clock = Runtime.clock t.ctx.Context.rt in
  match Clock.tracer clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.instant tr ~ts:(Clock.now_ns clock) ~cat ~name
        ~args:
          [
            ("rdd", Th_trace.Event.Int rdd_id);
            ("pidx", Th_trace.Event.Int pidx);
          ]
        ()

let group_bytes root =
  let total = ref (Obj_.total_size root) in
  Obj_.iter_refs (fun o -> total := !total + Obj_.total_size o) root;
  !total

let put t ~rdd_id ~pidx group =
  let rt = t.ctx.Context.rt in
  let key = (rdd_id, pidx) in
  (match Hashtbl.find_opt t.table key with
  | Some _ -> invalid_arg "Block_manager.put: block already cached"
  | None -> ());
  block_instant t ~cat:"spark" ~name:"block_put" ~rdd_id ~pidx;
  let entry =
    match t.ctx.Context.mode with
    | Context.Memory_only ->
        Runtime.write_ref rt t.root group;
        t.onheap_bytes <- t.onheap_bytes + group_bytes group;
        E_on_heap group
    | Context.Teraheap_cache ->
        (* Figure 4: the partition descriptor is the root key-object; the
           label is the RDD id, and the move advice is issued at once
           since cached RDD data is immutable. *)
        Runtime.write_ref rt t.root group;
        Runtime.h2_tag_root rt group ~label:rdd_id;
        Runtime.h2_move rt ~label:rdd_id;
        E_teraheap group
    | Context.Memory_and_ser_offheap _ ->
        let bytes = group_bytes group in
        if t.onheap_bytes + bytes <= t.onheap_budget then begin
          Runtime.write_ref rt t.root group;
          t.onheap_bytes <- t.onheap_bytes + bytes;
          E_on_heap group
        end
        else begin
          match Serializer.serialize rt group with
          | ser ->
              let cache = Option.get t.ctx.Context.offheap in
              let offset = t.offheap_top in
              t.offheap_top <- t.offheap_top + ser.Serializer.bytes;
              Page_cache.access cache ~cat:Clock.Serde_io ~write:true ~offset
                ~len:ser.Serializer.bytes;
              (* The deserialized heap copy is dropped: it becomes garbage
                 for the next collection. *)
              E_off_heap { offset; ser }
          | exception Serializer.Not_serializable _ ->
              (* A group that reaches JVM metadata cannot go off-heap.
                 Keep the partition on the heap past the budget rather
                 than failing the task: caching is an optimisation, and a
                 dropped block would be recomputed from lineage anyway. *)
              block_instant t ~cat:"spark" ~name:"block_put_unserializable"
                ~rdd_id ~pidx;
              Runtime.write_ref rt t.root group;
              t.onheap_bytes <- t.onheap_bytes + bytes;
              E_on_heap group
        end
  in
  Hashtbl.replace t.table key entry

(* Recomputing a lost partition from its lineage re-runs the narrow
   transformations that produced it; modelled as compute time proportional
   to the partition's payload, a few times the cost of scanning it once. *)
let recompute_compute_factor = 3.0

let get ?(hold = false) t ~rdd_id ~pidx ~consume =
  let rt = t.ctx.Context.rt in
  block_instant t ~cat:"spark" ~name:"block_get" ~rdd_id ~pidx;
  match Hashtbl.find t.table (rdd_id, pidx) with
  | E_on_heap group | E_teraheap group -> consume group
  | E_off_heap { offset; ser } ->
      let cache = Option.get t.ctx.Context.offheap in
      let group =
        match
          Page_cache.access cache ~checked:true ~cat:Clock.Serde_io
            ~write:false ~offset ~len:ser.Serializer.bytes
        with
        | () -> Serializer.deserialize rt ser
        | exception Th_device.Io_retry.Io_error _ ->
            (* The serialized copy is unreadable past the retry budget:
               recompute the partition from its lineage instead of
               failing the task (RDD fault tolerance). *)
            (match Th_device.Device.faults (Page_cache.device cache) with
            | Some f -> Th_sim.Fault.note_recompute f
            | None -> ());
            block_instant t ~cat:"fault" ~name:"recompute" ~rdd_id ~pidx;
            Runtime.compute rt
              ~bytes:
                (int_of_float
                   (recompute_compute_factor
                   *. float_of_int ser.Serializer.bytes));
            Serializer.rebuild rt ser
      in
      consume group;
      if hold then
        (* Downstream operators keep the deserialized iterator's data
           alive until the stage ends. *)
        t.held <- group :: t.held
      else
        (* Unpinned and not linked anywhere: reclaimed at the next GC. *)
        Runtime.remove_root rt group

let release_held t =
  let rt = t.ctx.Context.rt in
  List.iter (fun g -> Runtime.remove_root rt g) t.held;
  t.held <- []

let entry_kind t ~rdd_id ~pidx =
  match Hashtbl.find_opt t.table (rdd_id, pidx) with
  | Some (E_on_heap _) -> Some On_heap
  | Some (E_off_heap _) -> Some Off_heap
  | Some (E_teraheap _) -> Some In_teraheap
  | None -> None

let unpersist t ~rdd_id =
  let rt = t.ctx.Context.rt in
  (* th-lint: allow hashtbl-order — the fold only collects; the sort
     below pins partition order before any unlink runs. *)
  let doomed =
    Hashtbl.fold
      (fun ((rid, _) as key) entry acc ->
        if rid = rdd_id then (key, entry) :: acc else acc)
      t.table []
    |> List.sort (fun (((_, pa) : int * int), _) ((_, pb), _) ->
           Int.compare pa pb)
  in
  List.iter
    (fun (key, entry) ->
      (match entry with
      | E_on_heap group ->
          Runtime.unlink_ref rt t.root group;
          t.onheap_bytes <- t.onheap_bytes - group_bytes group
      | E_teraheap group -> Runtime.unlink_ref rt t.root group
      | E_off_heap _ -> ());
      Hashtbl.remove t.table key)
    doomed

let cached_blocks t = Hashtbl.length t.table
