type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> (
              match String.compare a.rule b.rule with
              | 0 -> String.compare a.message b.message
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s/%s] %s" f.file f.line f.col
    (severity_to_string f.severity)
    f.rule f.message
