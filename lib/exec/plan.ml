(* Declarative cell DAG for the benchmark harness.

   A section builds its plan with a builder: every call to [cell] (or
   the list/grouped helpers) registers one independent experiment cell
   and returns a future for its result. [seal] closes the builder into
   a section — the registered cells plus a pure render function that
   only reads futures. The harness then runs the cells of *all*
   requested sections as one global batch and the renders serially in
   submission order, so stdout/CSV stay byte-identical at any jobs
   count. *)

type 'a future = unit -> 'a

let get f = f ()

(* A registered cell: its thunk, which marshals the result inside the
   worker so that cells of every result type share one batch, and the
   parent-side decoder that fills the cell's typed slot. *)
type entry = { cell : string Cell.t; fill : string -> unit }

type t = { mutable rev_entries : entry list; mutable count : int }

type section = { entries : entry list; render : unit -> unit }

let create () = { rev_entries = []; count = 0 }

let cell b ?label ?cost f =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "cell-%d" b.count
  in
  let slot = ref None in
  let cell = Cell.make ~label ?cost (fun () -> Marshal.to_string (f ()) []) in
  let fill bytes = slot := Some (Marshal.from_string bytes 0) in
  b.rev_entries <- { cell; fill } :: b.rev_entries;
  b.count <- b.count + 1;
  fun () ->
    match !slot with
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

let grouped_costed b ?label groups =
  let futures =
    List.map (fun (key, fs) -> (key, costed_list b ?label fs)) groups
  in
  fun () -> List.map (fun (key, fut) -> (key, get fut)) futures

let seal b ~render = { entries = List.rev b.rev_entries; render }

let size s = List.length s.entries

let run ~jobs sections =
  let entries = List.concat_map (fun s -> s.entries) sections in
  let results, stats =
    Scheduler.run_cells ~jobs (List.map (fun e -> e.cell) entries)
  in
  List.iter2 (fun e bytes -> e.fill bytes) entries results;
  stats

let render s = s.render ()
