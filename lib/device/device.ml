module Fault = Th_sim.Fault

type kind = Dram | Nvme_ssd | Nvm_app_direct | Nvm_memory_mode

type params = {
  kind : kind;
  page_size : int;
  read_latency_ns : float;
  write_latency_ns : float;
  read_bw_gbps : float;
  write_bw_gbps : float;
}

type stats = {
  bytes_read : int;
  bytes_written : int;
  read_ops : int;
  write_ops : int;
}

type t = {
  params : params;
  clock : Th_sim.Clock.t;
  faults : Fault.t option;
  retry : Io_retry.policy;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable read_ops : int;
  mutable write_ops : int;
}

(* Presets. DRAM: ~80 ns loads, ~12 GB/s streaming. PM983 NVMe: ~3.2/2.0 GB/s
   read/write, queued 4 KiB request ~ 2.5/6 us. Optane App-Direct: 300 ns
   read, 100 ns buffered write at 256 B granularity, 6.0/2.0 GB/s
   (Izraelevitz et al. [24]). Memory mode pays an extra DRAM-cache-miss
   penalty, modelled at the access site. *)
let params_of_kind = function
  | Dram ->
      {
        kind = Dram;
        page_size = 64;
        read_latency_ns = 80.0;
        write_latency_ns = 80.0;
        read_bw_gbps = 12.0;
        write_bw_gbps = 12.0;
      }
  | Nvme_ssd ->
      {
        kind = Nvme_ssd;
        page_size = 4096;
        read_latency_ns = 2_500.0;
        write_latency_ns = 6_000.0;
        read_bw_gbps = 3.2;
        write_bw_gbps = 2.0;
      }
  | Nvm_app_direct ->
      {
        kind = Nvm_app_direct;
        page_size = 256;
        read_latency_ns = 300.0;
        write_latency_ns = 100.0;
        read_bw_gbps = 6.0;
        write_bw_gbps = 2.0;
      }
  | Nvm_memory_mode ->
      {
        kind = Nvm_memory_mode;
        page_size = 64;
        read_latency_ns = 300.0;
        write_latency_ns = 300.0;
        read_bw_gbps = 6.0;
        write_bw_gbps = 2.0;
      }

let create ?faults ?(retry = Io_retry.default) clock kind =
  {
    params = params_of_kind kind;
    clock;
    faults;
    retry;
    bytes_read = 0;
    bytes_written = 0;
    read_ops = 0;
    write_ops = 0;
  }

let kind t = t.params.kind

let faults t = t.faults

let page_size t = t.params.page_size

let round_to_pages t bytes =
  let p = t.params.page_size in
  (bytes + p - 1) / p * p

let transfer_ns bytes bw_gbps = float_of_int bytes /. bw_gbps

(* bw in GB/s = bytes/ns, so transfer time in ns is bytes / bw. *)

let read_cost_ns t ~random bytes =
  if bytes <= 0 then 0.0
  else if random then begin
    let amplified = round_to_pages t bytes in
    let requests = amplified / t.params.page_size in
    (float_of_int requests *. t.params.read_latency_ns)
    +. transfer_ns amplified t.params.read_bw_gbps
  end
  else t.params.read_latency_ns +. transfer_ns bytes t.params.read_bw_gbps

let write_cost_ns t ~random bytes =
  if bytes <= 0 then 0.0
  else if random then begin
    let amplified = round_to_pages t bytes in
    let requests = amplified / t.params.page_size in
    (float_of_int requests *. t.params.write_latency_ns)
    +. transfer_ns amplified t.params.write_bw_gbps
  end
  else t.params.write_latency_ns +. transfer_ns bytes t.params.write_bw_gbps

(* Perform one request of pure cost [cost_ns], drawing fault outcomes from
   the injector. A failed attempt pays one request latency before the
   error comes back; spike/stall surcharges and timeout waits are recorded
   as fault penalty so a run satisfies
   [total = pure costs + backoff + penalty]. Checked operations propagate
   {!Io_retry.Io_error} after bounded retries; unchecked operations
   (the kernel mmap path) classify exhaustion as a timeout, wait it out
   and complete — the mutator never sees EIO. *)
let perform t ~cat ~checked ~op ~cost_ns =
  match t.faults with
  | Some f when Fault.enabled f ->
      let latency_ns, opname, outcome_of =
        match op with
        | `Read -> (t.params.read_latency_ns, "read", Fault.on_read)
        | `Write -> (t.params.write_latency_ns, "write", Fault.on_write)
      in
      let fault_instant name args =
        match Th_sim.Clock.tracer t.clock with
        | None -> ()
        | Some tr ->
            Th_trace.Recorder.instant tr
              ~ts:(Th_sim.Clock.now_ns t.clock)
              ~cat:"fault" ~name ~args ()
      in
      let fail_attempt name =
        fault_instant name [];
        Th_sim.Clock.advance t.clock cat latency_ns;
        Fault.note_penalty f latency_ns;
        Result.Error `Transient
      in
      let attempt _n =
        match outcome_of f ~now_ns:(Th_sim.Clock.now_ns t.clock) with
        | Fault.Ok ->
            Th_sim.Clock.advance t.clock cat cost_ns;
            Result.Ok ()
        | Fault.Spike m ->
            fault_instant "spike" [ ("factor", Th_trace.Event.Float m) ];
            Th_sim.Clock.advance t.clock cat (cost_ns *. m);
            Fault.note_penalty f (cost_ns *. (m -. 1.0));
            Result.Ok ()
        | Fault.Stall extra ->
            fault_instant "stall" [ ("extra_ns", Th_trace.Event.Float extra) ];
            Th_sim.Clock.advance t.clock cat (cost_ns +. extra);
            Fault.note_penalty f extra;
            Result.Ok ()
        | Fault.Transient_error -> fail_attempt (opname ^ "_error")
        | Fault.Device_full -> fail_attempt "device_full"
      in
      let go () =
        Io_retry.run t.retry ~clock:t.clock ~cat ~faults:f ~op:opname attempt
      in
      if checked then go ()
      else begin
        try go ()
        with Io_retry.Io_error _ ->
          Th_sim.Clock.advance t.clock cat
            (t.retry.Io_retry.timeout_ns +. cost_ns);
          Fault.note_penalty f t.retry.Io_retry.timeout_ns
      end
  | Some _ | None -> Th_sim.Clock.advance t.clock cat cost_ns

(* One complete event per operation, spanning queueing, fault penalties
   and retries. [bytes] is the exact amount charged to the traffic
   counter, so {!Rollup} reproduces [stats] from the stream. *)
let traced_op t ~name ~bytes run =
  match Th_sim.Clock.tracer t.clock with
  | None -> run ()
  | Some tr ->
      let ts = Th_sim.Clock.now_ns t.clock in
      (* finally: the counters were already charged, so the event must be
         recorded even when a checked operation escapes with Io_error. *)
      Fun.protect run ~finally:(fun () ->
          Th_trace.Recorder.complete tr ~ts
            ~dur_ns:(Th_sim.Clock.now_ns t.clock -. ts)
            ~cat:"device" ~name
            ~args:[ ("bytes", Th_trace.Event.Int bytes) ]
            ())

let read ?(checked = false) t ~cat ~random bytes =
  if bytes > 0 then begin
    let charged = if random then round_to_pages t bytes else bytes in
    t.bytes_read <- t.bytes_read + charged;
    t.read_ops <- t.read_ops + 1;
    traced_op t ~name:"read" ~bytes:charged (fun () ->
        perform t ~cat ~checked ~op:`Read
          ~cost_ns:(read_cost_ns t ~random bytes))
  end

let read_continuation ?(overlap = 1.0) ?(checked = false) t ~cat bytes =
  if bytes > 0 then begin
    t.bytes_read <- t.bytes_read + bytes;
    t.read_ops <- t.read_ops + 1;
    traced_op t ~name:"read" ~bytes (fun () ->
        perform t ~cat ~checked ~op:`Read
          ~cost_ns:(overlap *. transfer_ns bytes t.params.read_bw_gbps))
  end

let write ?(checked = false) t ~cat ~random bytes =
  if bytes > 0 then begin
    let charged = if random then round_to_pages t bytes else bytes in
    t.bytes_written <- t.bytes_written + charged;
    t.write_ops <- t.write_ops + 1;
    traced_op t ~name:"write" ~bytes:charged (fun () ->
        perform t ~cat ~checked ~op:`Write
          ~cost_ns:(write_cost_ns t ~random bytes))
  end

let read_modify_write t ~cat bytes =
  read t ~cat ~random:true bytes;
  write t ~cat ~random:true bytes

let stats t =
  {
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
    read_ops = t.read_ops;
    write_ops = t.write_ops;
  }

let reset_stats t =
  t.bytes_read <- 0;
  t.bytes_written <- 0;
  t.read_ops <- 0;
  t.write_ops <- 0

let pp_stats f (s : stats) =
  Format.fprintf f "read %s in %d ops | wrote %s in %d ops"
    (Th_sim.Size.to_string s.bytes_read)
    s.read_ops
    (Th_sim.Size.to_string s.bytes_written)
    s.write_ops
