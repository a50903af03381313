(** Declarative cell DAG for the benchmark harness.

    Build a section's plan by registering independent cells; each
    registration returns a {!future} that becomes readable once {!run}
    has executed the cell. [seal] pairs the cells with a pure render
    function that consumes futures in submission order, which is what
    keeps stdout/CSV byte-identical at any jobs count: cells never
    print, renders never compute.

    The harness runs the cells of every requested section as one global
    batch (cross-section batching), so a run like
    [bench fig6 fig7 fig8 fig9 --jobs N] exposes the full cell
    population to the scheduler instead of 2–4 cells at a time. *)

type 'a future
(** The result of a registered cell. *)

val get : 'a future -> 'a
(** Raises [Failure] if the cell has not been executed yet — i.e. if a
    render runs before its section's cells were run. *)

type t
(** A plan under construction. *)

type section
(** A sealed plan: cells plus a pure render. *)

val create : unit -> t

val cell : t -> ?label:string -> ?cost:float -> (unit -> 'a) -> 'a future
(** Register one cell. [cost] is the scheduling hint (see {!Cell}). The
    closure runs in a worker process: it must not print, and what it
    mutates outside its result is lost. Its result must be plain data
    (see {!Scheduler}); a closure inside it fails the batch. *)

val cell_list : t -> ?label:string -> ?cost:float -> (unit -> 'a) list -> 'a list future
(** Register a list of cells sharing one cost hint. *)

val costed_list : t -> ?label:string -> (float * (unit -> 'a)) list -> 'a list future
(** Register a list of cells with per-cell cost hints. *)

val grouped_costed : t -> ?label:string -> ('k * (float * (unit -> 'a)) list) list -> ('k * 'a list) list future
(** Register every cell of every group; the future regroups results
    per key, in order — the planner sees one flat batch. *)

val seal : t -> render:(unit -> unit) -> section
(** Close the builder. [render] must only read futures and print. *)

val size : section -> int
(** The number of cells the section registered. *)

val run : jobs:int -> section list -> Scheduler.batch_stats
(** Run the cells of every section, in order, as one
    {!Scheduler.run_cells} batch and fill their futures. The stats list
    the cells section by section, each in registration order. *)

val render : section -> unit
(** Run the render pass. Only valid after {!run} has run the section. *)
