(* Domain scheduler for experiment-cell batches: Graham's LPT list
   scheduling.

   At submission a batch's cells are ordered longest-expected-first by
   their cost hints (stable on the submission index). Every domain —
   the [jobs - 1] workers and the submitting domain alike — then claims
   the next cell in that order with one [Atomic.fetch_and_add] on the
   batch's counter, runs it, and claims again until the counter passes
   the end. The claim order alone does the balancing: the expensive
   cells start first, the cheap ones fill in behind them.

   Determinism: cells never share state and results land in per-cell
   slots, so the result list (and anything rendered from it, in
   submission order) is byte-identical for every jobs value; only the
   wall-clock stats depend on scheduling.

   Handshake: a worker parks (counts itself [idle]) only after its claim
   has returned past the end, so once the submitter has drained the
   batch itself and sees [idle = jobs - 1] under the mutex, every
   claimed cell has finished and the mutex publishes its result slot.
   Each batch is a fresh record (fresh counter included) published under
   the same mutex with an epoch bump, so nothing is ever reset while a
   worker could be claiming. *)

type batch_stats = { cells : int; cell_wall_s : float array }

let empty_stats = { cells = 0; cell_wall_s = [||] }

type batch = {
  order : int array;  (* submission indices, longest-expected-first *)
  next : int Atomic.t;  (* next position in [order] to claim *)
  exec : int -> unit;  (* run one cell into its result slot *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  start : Condition.t;  (* batch-start broadcast *)
  quiesced : Condition.t;  (* worker-parked broadcast *)
  mutable epoch : int;
  mutable idle : int;  (* workers parked waiting for the next epoch *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  mutable batch : batch;  (* written and read under [mutex] *)
  mutable last : batch_stats;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

let last_batch t = t.last

(* Claim and run cells until the counter passes the end of the batch. *)
let drain b =
  let n = Array.length b.order in
  let rec go () =
    let k = Atomic.fetch_and_add b.next 1 in
    if k < n then begin
      b.exec b.order.(k);
      go ()
    end
  in
  go ()

let worker t =
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    t.idle <- t.idle + 1;
    Condition.broadcast t.quiesced;
    while t.epoch = !my_epoch && not t.shutting_down do
      Condition.wait t.start t.mutex
    done;
    if t.shutting_down then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      my_epoch := t.epoch;
      t.idle <- t.idle - 1;
      let b = t.batch in
      Mutex.unlock t.mutex;
      drain b
    end
  done

let create ~jobs () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      start = Condition.create ();
      quiesced = Condition.create ();
      epoch = 0;
      idle = 0;
      shutting_down = false;
      workers = [];
      batch = { order = [||]; next = Atomic.make 0; exec = ignore };
      last = empty_stats;
    }
  in
  if jobs > 1 then
    (* th-lint: allow domain_shared — workers share the scheduler record
       by design: its mutable fields are read and written only under
       [mutex], and a batch's claim counter is an Atomic.t. *)
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let run_cells t cells =
  match cells with
  | [] -> []
  | cells ->
      let arr = Array.of_list cells in
      let n = Array.length arr in
      let results = Array.make n None in
      let durations = Array.make n 0.0 in
      let exec i =
        let t0 = Wall.now_s () in
        let r =
          match (arr.(i).Cell.run) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        durations.(i) <- Wall.elapsed_s ~since:t0;
        results.(i) <- Some r
      in
      let order = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Float.compare arr.(b).Cell.cost arr.(a).Cell.cost)
        order;
      let b = { order; next = Atomic.make 0; exec } in
      Mutex.lock t.mutex;
      t.batch <- b;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.start;
      Mutex.unlock t.mutex;
      drain b;
      Mutex.lock t.mutex;
      while t.idle < t.jobs - 1 do
        Condition.wait t.quiesced t.mutex
      done;
      Mutex.unlock t.mutex;
      t.last <- { cells = n; cell_wall_s = durations };
      (* Collect in submission order; re-raise the first failure (by
         submission order) after the whole batch has drained. *)
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None ->
               failwith "Scheduler.run_cells: cell finished without a result")

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_scheduler ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
