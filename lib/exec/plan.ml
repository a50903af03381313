(* Declarative cell DAG for the benchmark harness.

   A section builds its plan with a builder: every call to [cell] (or
   the list/grouped helpers) registers one independent experiment cell
   and returns a future for its result. [seal] closes the builder into
   a section — the registered cells plus a pure render function that
   only reads futures. The harness then submits the cells of *all*
   requested sections to the Scheduler as one global batch and runs the
   renders serially in submission order, so stdout/CSV stay
   byte-identical at any jobs count. *)

type 'a future = unit -> 'a

let get f = f ()

type t = { mutable rev_cells : unit Cell.t list; mutable count : int }

type section = { cells : unit Cell.t list; render : unit -> unit }

let create () = { rev_cells = []; count = 0 }

let cell b ?label ?cost f =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "cell-%d" b.count
  in
  (* The slot is written by whichever worker domain runs the cell and
     read by the coordinator after the batch; Atomic publication makes
     the hand-off explicit rather than leaning on the scheduler's
     end-of-batch mutex. *)
  let slot = Atomic.make None in
  let c =
    Cell.make ~label ?cost ~lane:b.count (fun () -> Atomic.set slot (Some (f ())))
  in
  b.rev_cells <- c :: b.rev_cells;
  b.count <- b.count + 1;
  fun () ->
    match Atomic.get slot with
    | Some v -> v
    | None ->
        failwith
          (Printf.sprintf
             "Plan.get: cell %S read before the batch executed it" label)

let cell_list b ?label ?cost fs =
  let futures = List.map (fun f -> cell b ?label ?cost f) fs in
  fun () -> List.map get futures

let costed_list b ?label fs =
  let futures = List.map (fun (cost, f) -> cell b ?label ~cost f) fs in
  fun () -> List.map get futures

let grouped b ?label ?cost groups =
  let futures =
    List.map (fun (key, fs) -> (key, cell_list b ?label ?cost fs)) groups
  in
  fun () -> List.map (fun (key, fut) -> (key, get fut)) futures

let grouped_costed b ?label groups =
  let futures =
    List.map (fun (key, fs) -> (key, costed_list b ?label fs)) groups
  in
  fun () -> List.map (fun (key, fut) -> (key, get fut)) futures

let cell_count b = b.count

let seal b ~render = { cells = List.rev b.rev_cells; render }

let cells s = s.cells

let render s = s.render ()

(* Convenience runner for one section outside the harness (tests,
   direct callers): submit its cells as one batch, then render. *)
let run_section sched s =
  ignore (Scheduler.run_cells sched (cells s) : unit list);
  render s
