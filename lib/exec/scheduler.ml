(* Process scheduler for experiment-cell batches: Graham's LPT list
   scheduling over forked workers.

   Each batch forks [min jobs n] workers. The parent orders the cells
   longest-expected-first by their cost hints (stable on the submission
   index) and hands out cell indices over one command pipe per worker,
   one outstanding cell per worker: the expensive cells start first and
   the cheap ones fill in behind them as workers report back. A worker
   runs its cell and writes [(index, reply, wall_s)] back with [Marshal]
   (no [Closures] flag: a result must be plain data); EOF on its command
   pipe tells it to exit.

   Determinism: a cell runs in a copy of the parent's heap and only its
   marshalled result comes back, so the results (and anything rendered
   from them, in submission order) are byte-identical for every jobs
   value; only the wall-clock stats depend on scheduling.

   Fork hygiene: buffers are flushed before every fork, so a worker
   never re-emits the parent's pending output; a worker closes the
   parent's ends of every other worker's pipes, or it would hold a
   sibling's command pipe open and that sibling would never see EOF; and
   a worker leaves through [Unix._exit], so [at_exit] handlers run only
   in the parent. *)

type batch_stats = { cells : int; cell_wall_s : float array }

let default_jobs () = Domain.recommended_domain_count ()

(* A cell's outcome as the worker reports it: the value, or the text of
   the exception and its backtrace (exception identity does not survive
   [Marshal]). *)
type 'a reply = ('a, string * string) result

type worker = {
  pid : int;
  cmd : out_channel;  (* cell indices to the worker *)
  replies : in_channel;  (* its marshalled replies *)
  mutable running : int;  (* index of the outstanding cell, or -1 *)
}

let rec restart f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let serve (cells : 'a Cell.t array) ic oc =
  let rec loop () =
    match input_binary_int ic with
    | exception End_of_file -> ()
    | i ->
        let t0 = Wall.now_s () in
        let (reply : 'a reply) =
          match cells.(i).Cell.run () with
          | v -> Ok v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Error (Printexc.to_string e, Printexc.raw_backtrace_to_string bt)
        in
        let wall = Wall.elapsed_s ~since:t0 in
        (match Marshal.to_string (i, reply, wall) [] with
        | bytes -> output_string oc bytes
        | exception e ->
            let why = "result cannot be marshalled: " ^ Printexc.to_string e in
            Marshal.to_channel oc (i, (Error (why, "") : 'a reply), wall) []);
        flush oc;
        loop ()
  in
  loop ()

let spawn cells live =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (* Nothing may escape into the parent's code from here. *)
      (try
         List.iter
           (fun w ->
             close_out_noerr w.cmd;
             close_in_noerr w.replies)
           live;
         Unix.close cmd_w;
         Unix.close rep_r;
         serve cells
           (Unix.in_channel_of_descr cmd_r)
           (Unix.out_channel_of_descr rep_w)
       with _ -> ());
      flush_all ();
      Unix._exit 0
  | pid ->
      Unix.close cmd_r;
      Unix.close rep_w;
      {
        pid;
        cmd = Unix.out_channel_of_descr cmd_w;
        replies = Unix.in_channel_of_descr rep_r;
        running = -1;
      }

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Printf.sprintf "was killed by signal %d" s

let run_cells ~jobs (cells : 'a Cell.t list) =
  if jobs < 1 then invalid_arg "Scheduler.run_cells: jobs must be >= 1";
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare cells.(b).Cell.cost cells.(a).Cell.cost)
    order;
  let results : 'a reply option array = Array.make n None in
  let walls = Array.make n 0.0 in
  let next = ref 0 and live = ref [] in
  let dispatch w =
    if !next < n then begin
      w.running <- order.(!next);
      incr next;
      try
        output_binary_int w.cmd w.running;
        flush w.cmd
      with Sys_error _ -> ()
    end
    else begin
      w.running <- -1;
      close_out_noerr w.cmd
    end
  in
  let start () =
    let w = spawn cells !live in
    live := w :: !live;
    dispatch w
  in
  let retire w =
    live := List.filter (fun w' -> w'.pid <> w.pid) !live;
    close_out_noerr w.cmd;
    close_in_noerr w.replies;
    snd (restart (fun () -> Unix.waitpid [] w.pid))
  in
  (* A write to a worker that has just died must fail with EPIPE, not
     kill the parent; the death itself shows as EOF on its replies. *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun w -> ignore (retire w : Unix.process_status)) !live;
      Sys.set_signal Sys.sigpipe old_sigpipe)
    (fun () ->
      for _ = 1 to min jobs n do
        start ()
      done;
      let fd w = Unix.descr_of_in_channel w.replies in
      while List.exists (fun w -> w.running >= 0) !live do
        let busy = List.filter (fun w -> w.running >= 0) !live in
        let ready, _, _ =
          restart (fun () -> Unix.select (List.map fd busy) [] [] (-1.0))
        in
        List.iter
          (fun w ->
            if List.mem (fd w) ready then
              match (Marshal.from_channel w.replies : int * 'a reply * float) with
              | i, reply, wall ->
                  results.(i) <- Some reply;
                  walls.(i) <- wall;
                  dispatch w
              | exception (End_of_file | Failure _) ->
                  let i = w.running in
                  let status = retire w in
                  results.(i) <- Some (Error ("its worker " ^ status_text status, ""));
                  (* The remaining cells go to a fresh worker. *)
                  if !next < n then start ())
          busy
      done);
  (* Collect in submission order: the first failure (by submission
     order) fails the batch, after the whole batch has drained. *)
  let values =
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error (what, bt)) ->
            failwith
              (Printf.sprintf "cell %S failed: %s%s" cells.(i).Cell.label what
                 (if String.equal bt "" then "" else "\n" ^ bt))
        | None -> failwith "Scheduler.run_cells: cell finished without a result")
  in
  (values, { cells = n; cell_wall_s = walls })
