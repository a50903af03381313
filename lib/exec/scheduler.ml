(* Work-stealing Domain scheduler for experiment-cell batches.

   A batch of independent cells is planned once at submission:
   - cells are ordered longest-expected-first by their cost hints;
   - adjacent cells are packed into chunks (the steal/placement unit)
     whose target cost is [total / (oversubscribe * jobs)], so cheap
     cells amortize deque traffic while expensive cells stay singleton;
   - chunks are dealt to per-domain Chase-Lev-style deques (Deque) with
     an LPT greedy: each chunk, in descending cost order, goes to the
     currently least-loaded domain (deterministic index tie-break).

   During the batch, every domain pops its own deque from the bottom
   (descending expected cost — deques are seeded in ascending order so
   LIFO pops run the big chunks first) and, when empty, scans the other
   domains in ring order starting after itself and steals from the top.
   The batch ends when the remaining-cell counter hits zero.

   Determinism: cells never share state and results land in per-cell
   slots, so the result list (and anything rendered from it, in
   submission order) is byte-identical for every jobs value; only the
   wall-clock stats depend on scheduling. Workers are quiesced between
   batches (the [idle] handshake), so deques and the chunk runner are
   published race-free by the batch-start mutex. *)

type batch_stats = {
  cells : int;
  chunks : int;
  steals : int;
  steal_scans : int;
  cell_wall_s : float array;
}

let empty_stats =
  { cells = 0; chunks = 0; steals = 0; steal_scans = 0; cell_wall_s = [||] }

(* Target chunks per domain when all cells are cheap. *)
let oversubscribe = 4

type t = {
  jobs : int;
  mutex : Mutex.t;
  start : Condition.t;  (* batch-start broadcast *)
  quiesced : Condition.t;  (* worker-parked broadcast *)
  mutable epoch : int;
  mutable idle : int;  (* workers parked waiting for the next epoch *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  (* Per-batch state; written by the submitter while quiesced, read by
     workers after the batch-start handshake. *)
  mutable deques : Deque.t array;
  mutable run_chunk : int -> unit;
  remaining : int Atomic.t;
      [@th.atomic
        "outstanding cells this batch; decremented via RMW by every \
         executing domain, plain-set only while workers are quiesced"]
  steals : int Atomic.t;
      [@th.atomic
        "successful steals this batch; bumped via RMW by thieves, \
         plain-set only while workers are quiesced"]
  steal_scans : int Atomic.t;
      [@th.atomic
        "victim scans this batch; bumped via RMW by thieves, plain-set \
         only while workers are quiesced"]
  mutable last : batch_stats;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

let last_batch t = t.last

(* Escalating wait for domains with nothing to run or steal: spin with
   cpu_relax first (the common, microsecond-scale case near a batch
   boundary), then sleep in sub-millisecond slices. On an oversubscribed
   machine (jobs > cores) a busy spin would steal the core from the
   domains holding the remaining cells. *)
let backoff misses =
  if misses < 8 then
    for _ = 1 to 1 lsl misses do
      Domain.cpu_relax ()
    done
  else Unix.sleepf (Float.min 0.001 (1e-5 *. float_of_int (misses - 7)))

(* Drain own deque, then scan victims; spin (with cpu_relax) while
   other domains still hold unfinished cells we cannot steal. *)
let work t d =
  let deques = t.deques in
  let run = t.run_chunk in
  let jobs = t.jobs in
  let rec own () =
    match Deque.pop deques.(d) with
    | Some c ->
        run c;
        own ()
    | None -> hunt 0
  and hunt misses =
    if Atomic.get t.remaining > 0 then begin
      Atomic.incr t.steal_scans;
      let stolen = ref false in
      let i = ref 1 in
      while (not !stolen) && !i < jobs do
        (match Deque.steal deques.((d + !i) mod jobs) with
        | Some c ->
            Atomic.incr t.steals;
            stolen := true;
            run c
        | None -> incr i)
      done;
      if !stolen then own ()
      else begin
        backoff misses;
        hunt (misses + 1)
      end
    end
  in
  own ()

let worker t d =
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
      Mutex.unlock t.mutex;
      work t d
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
      deques = [||];
      run_chunk = (fun _ -> ());
      remaining = Atomic.make 0;
      steals = Atomic.make 0;
      steal_scans = Atomic.make 0;
      last = empty_stats;
    }
  in
  if jobs > 1 then
    (* th-lint: allow domain_shared — workers share the scheduler record
       by design: hot fields are Atomic.t, the rest are written only
       under [mutex] or while every worker is parked (quiesced). *)
    t.workers <-
      List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

(* Longest-expected-first plan: submission indices sorted by descending
   cost (stable on the submission index), packed into chunks no costlier
   than [total / (oversubscribe * jobs)] — an expensive cell always gets
   its own chunk — and capped at [chunk_max] cells. *)
let plan_chunks ~jobs ~chunk_max (costs : float array) =
  let n = Array.length costs in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare costs.(b) costs.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let total = Array.fold_left ( +. ) 0.0 costs in
  let target = total /. float_of_int (oversubscribe * jobs) in
  let chunk_max = max 1 chunk_max in
  let chunks = ref [] in
  let current = ref [] in
  let current_cost = ref 0.0 in
  let current_len = ref 0 in
  let flush () =
    if !current_len > 0 then begin
      chunks := Array.of_list (List.rev !current) :: !chunks;
      current := [];
      current_cost := 0.0;
      current_len := 0
    end
  in
  Array.iter
    (fun i ->
      if
        !current_len >= chunk_max
        || (!current_len > 0 && !current_cost +. costs.(i) > target)
      then flush ();
      current := i :: !current;
      current_cost := !current_cost +. costs.(i);
      current_len := !current_len + 1)
    order;
  flush ();
  Array.of_list (List.rev !chunks)

(* LPT deal: chunks arrive in descending cost order; each goes to the
   least-loaded domain. Returns per-domain chunk-id lists in assignment
   order (most expensive first). *)
let deal_chunks ~jobs ~pin (chunks : int array array) (costs : float array) =
  let load = Array.make jobs 0.0 in
  let per_domain = Array.make jobs [] in
  Array.iteri
    (fun c chunk ->
      let d =
        match pin with
        | Some f ->
            let d = f c in
            if d < 0 || d >= jobs then
              invalid_arg "Scheduler.run_cells: pin out of range"
            else d
        | None ->
            let best = ref 0 in
            for d = 1 to jobs - 1 do
              if load.(d) < load.(!best) then best := d
            done;
            !best
      in
      let cost = Array.fold_left (fun a i -> a +. costs.(i)) 0.0 chunk in
      load.(d) <- load.(d) +. cost;
      per_domain.(d) <- c :: per_domain.(d))
    chunks;
  (* Reversed accumulation left the cheapest chunk first: exactly the
     seeding order we want, since owners pop LIFO (most expensive
     first) and thieves steal the cheap top end. *)
  per_domain

let run_cells ?pin ?(chunk_max = 16) t cells =
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
      if t.jobs = 1 then begin
        (* Serial reference path: submission order, no planning. *)
        for i = 0 to n - 1 do
          exec i
        done;
        t.last <-
          {
            cells = n;
            chunks = n;
            steals = 0;
            steal_scans = 0;
            cell_wall_s = durations;
          }
      end
      else begin
        let costs = Array.map (fun c -> c.Cell.cost) arr in
        let chunks =
          plan_chunks ~jobs:t.jobs ~chunk_max costs
        in
        let per_domain = deal_chunks ~jobs:t.jobs ~pin chunks costs in
        let run_chunk c =
          Array.iter
            (fun i ->
              exec i;
              Atomic.decr t.remaining)
            chunks.(c)
        in
        (* Quiesce, then publish the batch under the mutex. *)
        Mutex.lock t.mutex;
        while t.idle < t.jobs - 1 do
          Condition.wait t.quiesced t.mutex
        done;
        t.deques <-
          Array.init t.jobs (fun _ -> Deque.create ~capacity:(Array.length chunks));
        Array.iteri
          (fun d ids -> List.iter (fun c -> Deque.push t.deques.(d) c) ids)
          per_domain;
        t.run_chunk <- run_chunk;
        (* th-lint: allow atomic-plain-write — batch-boundary publish:
           every worker is parked on [quiesced] here, so no RMW can race
           with these stores; the epoch broadcast republishes them. *)
        Atomic.set t.remaining n;
        Atomic.set t.steals 0;
        Atomic.set t.steal_scans 0;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.start;
        Mutex.unlock t.mutex;
        (* The submitting domain participates as domain 0, then waits
           for in-flight cells it could not steal. *)
        work t 0;
        let misses = ref 0 in
        while Atomic.get t.remaining > 0 do
          backoff !misses;
          incr misses
        done;
        t.last <-
          {
            cells = n;
            chunks = Array.length chunks;
            steals = Atomic.get t.steals;
            steal_scans = Atomic.get t.steal_scans;
            cell_wall_s = durations;
          }
      end;
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
