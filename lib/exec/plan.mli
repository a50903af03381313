(** Declarative cell DAG for the benchmark harness.

    Build a section's plan by registering independent cells; each
    registration returns a {!future} that becomes readable once a
    {!Scheduler} batch has executed the cell. [seal] pairs the cells
    with a pure render function that consumes futures in submission
    order, which is what keeps stdout/CSV byte-identical at any jobs
    count: cells never print, renders never compute.

    The harness submits the cells of every requested section as one
    global batch (cross-section batching), so a run like
    [bench fig6 fig7 fig8 fig9 --jobs N] exposes the full cell
    population to the scheduler instead of 2–4 cells at a time. *)

type 'a future
(** The result of a registered cell. *)

val get : 'a future -> 'a
(** Raises [Failure] if the cell has not been executed yet — i.e. if a
    render runs before its section's cells were submitted. *)

type t
(** A plan under construction. *)

type section
(** A sealed plan: cells plus a pure render. *)

val create : unit -> t

val cell : t -> ?label:string -> ?cost:float -> (unit -> 'a) -> 'a future
(** Register one cell. [cost] is the scheduling hint (see {!Cell});
    the cell's lane id is its registration index, so traces merged in
    lane order are deterministic. The closure runs on a worker domain:
    it must not touch shared mutable state or print. *)

val cell_list : t -> ?label:string -> ?cost:float -> (unit -> 'a) list -> 'a list future
(** Register a list of cells sharing one cost hint. *)

val costed_list : t -> ?label:string -> (float * (unit -> 'a)) list -> 'a list future
(** Register a list of cells with per-cell cost hints. *)

val grouped : t -> ?label:string -> ?cost:float -> ('k * (unit -> 'a) list) list -> ('k * 'a list) list future
(** Register every cell of every group; the future regroups results
    per key, in order — the planner sees one flat batch. *)

val grouped_costed : t -> ?label:string -> ('k * (float * (unit -> 'a)) list) list -> ('k * 'a list) list future

val cell_count : t -> int

val seal : t -> render:(unit -> unit) -> section
(** Close the builder. [render] must only read futures and print. *)

val cells : section -> unit Cell.t list
(** The section's cells in registration order (for global batching). *)

val render : section -> unit
(** Run the render pass. Only valid after every cell has executed. *)

val run_section : Scheduler.t -> section -> unit
(** Submit one section's cells as a batch, then render — for callers
    outside the cross-section harness. *)
