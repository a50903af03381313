(** A structured static-analysis finding.

    Findings are value types shared by the {!Engine} (which produces
    them), the {!Report} renderers (text and JSON) and the test suite;
    they carry everything needed to locate, explain and gate on a rule
    violation without re-reading the source. *)

type raw = { loc : Location.t; rule : string; message : string }
(** A finding as a pass reports it: where, which rule, what. {!Engine}
    assigns the severity and decides whether a waiver covers [loc]. *)

type severity = Error | Warning

type t = {
  file : string;  (** path as given to the analyzer *)
  line : int;  (** 1-based line of the offending node *)
  col : int;  (** 0-based column, matching compiler convention *)
  rule : string;  (** rule name, e.g. ["hashtbl-order"] *)
  severity : severity;
  message : string;  (** one-line explanation specific to the site *)
}

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Total order: file, line, col, rule, message — gives reports a
    deterministic layout independent of discovery order. *)

val to_string : t -> string
(** [file:line:col: [severity/rule] message] — compiler-style, so
    editors can jump to the site. *)
