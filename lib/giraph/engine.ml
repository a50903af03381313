open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime

type mode = In_memory | Out_of_core of { threshold : float } | Teraheap

(* Giraph's per-message and per-edge framework overhead (dispatch,
   combiner, synchronization) dwarfs the raw byte cost: roughly 200 ns
   per 8-byte message and ~5 ns per edge byte on the paper's hardware.
   Expressed as byte multipliers over the base compute cost model. *)
let msg_compute_factor = 24

let edge_compute_factor = 6

type algorithm = {
  name : string;
  supersteps : int;
  message_bytes : superstep:int -> total_edges:int -> int;
      (* raw per-edge sends, before combining *)
  combine_factor : float;
      (* message combiner reduction: stored volume = sends / factor *)
  active_fraction : superstep:int -> float;
  update_fraction : float;
}

type params = {
  partitions : int;
  vertices : int;
  avg_degree : int;
  edge_bytes : int;
}

type result = {
  supersteps_run : int;
  total_messages_bytes : int;
  graph : Graph.t;
}

(* Giraph's maxPartitionsInMemory policy: as many partitions' edges as fit
   in the old generation next to the vertex values and a message-store
   reserve. *)
let ooc_max_resident rt (params : params) =
  let heap = Th_psgc.Runtime.heap rt in
  let old = heap.Th_minijvm.H1_heap.old_capacity in
  let vertex_bytes = params.vertices * (Graph.vertex_value_bytes + 24) in
  let per_partition_edges =
    params.vertices * ((params.avg_degree * params.edge_bytes) + 56)
    / params.partitions
  in
  let budget = (old * 70 / 100) - vertex_bytes in
  max 2 (budget / max 1 per_partition_edges)


let edges_label = 0

(* Allocation sites for lifetime-profiling placement policies: labels
   alone cannot key a profile here because message-store chunks are
   labelled by superstep number (a fresh label every superstep), so the
   two logical sites get fixed ids — stable across runs and policies. *)
let edges_site = 0

let messages_site = 1

let run rt ~mode ?ooc_device ?(ooc_dr2 = Size.paper_gb 15) ~prng ~algo params =
  let teraheap = mode = Teraheap in
  let max_resident = ooc_max_resident rt params in
  let ooc =
    match mode with
    | Out_of_core { threshold } ->
        let device =
          match ooc_device with
          | Some d -> d
          | None -> invalid_arg "Engine.run: out-of-core needs a device"
        in
        Some (Ooc.create rt ~device ~dr2_bytes:ooc_dr2 ~threshold)
    | In_memory | Teraheap -> None
  in
  (* Input superstep: load and partition the graph; TeraHeap tags each
     vertex's out-edges map as it materialises (Figure 5, step 1), while
     the out-of-core scheduler starts offloading as soon as the partially
     loaded graph pressures the heap. *)
  let loaded = ref [] in
  let graph =
    Graph.load rt ~prng ~partitions:params.partitions
      ~vertices:params.vertices ~avg_degree:params.avg_degree
      ~edge_bytes:params.edge_bytes
      ~on_vertex_loaded:(fun v ->
        if teraheap then
          Runtime.h2_tag_root rt ~site:edges_site v.Graph.edges_obj
            ~label:edges_label)
      ~on_partition_loaded:(fun p ->
        loaded := p :: !loaded;
        match ooc with
        | Some o ->
            Ooc.note_processed o p;
            Ooc.enforce_budget_list o !loaded ~max_resident
        | None -> ())
      ()
  in
  (* End of the input superstep: advise moving the (now immutable) edges
     to H2 (Figure 5, step 2). *)
  if teraheap then Runtime.h2_move rt ~label:edges_label;
  (* Engine-level anchor for the message stores. *)
  let anchor = Runtime.alloc rt ~size:128 () in
  Runtime.add_root rt anchor;
  let incoming : Msg_store.t option ref = ref None in
  let total_msgs = ref 0 in
  let msg_offload_top = ref (Size.paper_gb 512) in
  let superstep_mark ~ending step =
    let clock = Runtime.clock rt in
    match Clock.tracer clock with
    | None -> ()
    | Some tr ->
        let emit =
          if ending then Th_trace.Recorder.span_end
          else Th_trace.Recorder.span_begin
        in
        emit tr ~ts:(Clock.now_ns clock) ~cat:"giraph" ~name:"superstep"
          ~args:[ ("step", Th_trace.Event.Int step) ]
          ()
  in
  for step = 1 to algo.supersteps do
    superstep_mark ~ending:false step;
    (* Figure 5 step 4: at the beginning of each superstep, advise moving
       the previous superstep's (now immutable) messages. *)
    if teraheap && step >= 2 then Runtime.h2_move rt ~label:(step - 1);
    let current = Msg_store.create rt ~anchor ~superstep:step in
    (* Consume incoming messages from the previous superstep; offloaded
       stores are streamed back chunk by chunk. *)
    (match !incoming with
    | Some store ->
        (match ooc with
        | Some o ->
            Msg_store.consume_streamed rt store ~cache:(Ooc.page_cache o)
        | None -> Msg_store.consume rt store);
        (* Per-message processing overhead beyond the raw byte reads. *)
        Runtime.compute rt ~bytes:(store.Msg_store.bytes * msg_compute_factor)
    | None -> ());
    let volume =
      algo.message_bytes ~superstep:step ~total_edges:graph.Graph.total_edges
    in
    total_msgs := !total_msgs + volume;
    let frac = algo.active_fraction ~superstep:step in
    Array.iter
      (fun (p : Graph.partition) ->
        (match ooc with
        | Some o -> Ooc.ensure_resident o graph p
        | None -> ());
        let nv = Array.length p.Graph.vertices in
        let active = int_of_float (ceil (frac *. float_of_int nv)) in
        let active = max 0 (min nv active) in
        let routed = ref 0 in
        for i = 0 to active - 1 do
          let v = p.Graph.vertices.(i) in
          (* Route messages over the out edges. *)
          Runtime.read_obj rt v.Graph.edges_obj;
          routed := !routed + v.Graph.edges_obj.Obj_.size;
          if
            algo.update_fraction >= 1.0
            || Prng.float prng 1.0 < algo.update_fraction
          then Runtime.update_obj rt v.Graph.vobj
        done;
        Runtime.compute rt ~bytes:(!routed * edge_compute_factor);
        (* This partition's share of the superstep's messages; the
           combiner collapses same-target messages before they are
           stored. *)
        Msg_store.append rt current
          ~bytes:
            (int_of_float
               (float_of_int volume /. max 1.0 algo.combine_factor)
            / params.partitions)
          ~on_chunk_created:(fun c ->
            if teraheap then
              Runtime.h2_tag_root rt ~site:messages_site c ~label:step);
        (match ooc with
        | Some o ->
            Ooc.note_processed o p;
            Ooc.enforce_budget o graph ~max_resident;
            (* Giraph's out-of-core message store spills incrementally
               while the superstep produces messages. *)
            if
              Th_minijvm.H1_heap.old_occupancy (Runtime.heap rt)
              > (match mode with
                | Out_of_core { threshold } -> threshold
                | In_memory | Teraheap -> 1.0)
            then begin
              let written =
                Msg_store.spill rt current ~cache:(Ooc.page_cache o)
                  ~offset:!msg_offload_top ~keep_chunks:2
              in
              msg_offload_top := !msg_offload_top + written
            end
        | None -> ()))
      graph.Graph.partitions;
    (* Synchronisation barrier: the previous incoming store is fully
       consumed and dropped; the current store becomes immutable and will
       be the next superstep's incoming store. *)
    (match !incoming with
    | Some store -> Msg_store.drop rt store ~anchor
    | None -> ());
    (match ooc with
    | Some o ->
        (* The out-of-core scheduler spills the sealed message store at
           the barrier; it is streamed back during the next superstep. *)
        let written =
          Msg_store.offload rt current ~cache:(Ooc.page_cache o)
            ~offset:!msg_offload_top
        in
        msg_offload_top := !msg_offload_top + written
    | None -> ());
    incoming := Some current;
    superstep_mark ~ending:true step
  done;
  (match !incoming with
  | Some store -> Msg_store.drop rt store ~anchor
  | None -> ());
  Runtime.remove_root rt anchor;
  {
    supersteps_run = algo.supersteps;
    total_messages_bytes = !total_msgs;
    graph;
  }
