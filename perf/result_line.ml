(* A benchmark run read back from its standard output: the workload from
   the "# perf workload=..." header, and the result object from the last
   line. *)

type t = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;  (** name, (value, unit) *)
}

let header_workload line =
  if String.starts_with ~prefix:"# perf " line then
    List.find_map
      (fun tok ->
        match String.split_on_char '=' tok with
        | [ "workload"; w ] -> Some w
        | _ -> None)
      (String.split_on_char ' ' line)
  else None

let of_output text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.equal (String.trim l) ""))
  in
  let int k r =
    match Json.member k r with Some (Json.Num n) -> int_of_float n | _ -> 0
  in
  let metric (k, v) =
    match (Json.member "value" v, Json.member "unit" v) with
    | Some (Json.Num x), Some (Json.Str u) -> Some (k, (x, u))
    | _ -> None
  in
  match (List.find_map header_workload lines, List.rev lines) with
  | None, _ -> Error "no \"# perf workload=\" header"
  | Some _, [] -> Error "no result line"
  | Some workload, last :: _ -> (
      match Json.parse last with
      | Error msg -> Error msg
      | Ok r -> (
          match Json.member "metrics" r with
          | Some (Json.Obj kvs) ->
              Ok
                {
                  workload;
                  correct =
                    (match Json.member "correct" r with
                    | Some (Json.Bool b) -> b
                    | _ -> false);
                  attempted = int "attempted" r;
                  failed = int "failed" r;
                  metrics = List.filter_map metric kvs;
                }
          | _ -> Error "result line has no metrics"))
