(** Trace exporters.

    Both exporters are deterministic functions of the event list: equal
    simulated runs yield byte-identical output, which is what the golden
    tests and the [--jobs] determinism checks rely on. No host state
    (wall clock, hash order, locale) reaches the output. *)

val merge : Recorder.t list -> Event.t list
(** Events of several recorders concatenated in the given (lane) order;
    each recorder's own events stay in recording order. *)

val escape_json : Buffer.t -> string -> unit
(** [escape_json b s] appends [s] as the body of a JSON string literal
    (no surrounding quotes): quote, backslash, newline, tab and carriage
    return get their short escapes, other control bytes become
    [\u00XX], and every other byte is copied through. *)

val to_chrome_json : Event.t list -> string
(** Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
    Perfetto and chrome://tracing. Timestamps convert to microseconds
    ([ts], and [dur] for complete events); the lane becomes [tid] under a
    single [pid] 0. *)

val to_text : Event.t list -> string
(** The compact deterministic text form used by golden tests: one line
    per event — [lane ts kind cat name k=v ...] — with timestamps in
    nanoseconds at fixed precision. *)
