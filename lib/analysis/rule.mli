(** The rule registry.

    Every check the {!Engine} can perform is described here: its stable
    name (used in waivers, [--rules] filters and JSON output), family,
    default severity, one-line synopsis and a longer [--explain] text
    that says what the rule catches, why it matters for bit-exact
    reproduction, and how to waive it. *)

type family =
  | Determinism
  | Hygiene

type t = {
  name : string;
  family : family;
  severity : Finding.severity;
  synopsis : string;  (** one line, shown in rule listings *)
  explain : string;  (** multi-line body for [--explain] *)
}

val all : t list
(** Every rule the {!Engine} runs over the AST, in stable documentation
    order. *)

val missing_mli : t
(** The file-system rule {!Fscheck.missing_mli} reports. *)

val catalog : t list
(** [all] then [missing_mli]: every rule [lint.exe] lists, filters on
    and explains. *)

val names : string list
(** The names in {!catalog}. *)

val find : string -> t option
(** Look a name up in {!catalog}. *)

val family_to_string : family -> string

val explain_text : t -> string
(** Rendered [--explain] block: header, synopsis, body, waiver recipe. *)
