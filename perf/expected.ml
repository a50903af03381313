(* The committed digests of every cell at the default seeds
   (perf/expected.digests): one "<workload> <cell> <md5>" line each. *)

let path = "perf/expected.digests"

let header =
  "# Run digests of every benchmark cell at the default seeds.\n\
   # Regenerate with: dune exec perf/main.exe -- --bless\n"

type t = ((string * string) * string) list

let load () : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      String.split_on_char '\n' text
      |> List.filter (fun l ->
             not (String.equal l "" || Char.equal l.[0] '#'))
      |> List.fold_left
           (fun acc line ->
             match (acc, String.split_on_char ' ' line) with
             | Ok entries, [ workload; cell; digest ] ->
                 Ok (((workload, cell), digest) :: entries)
             | Ok _, _ ->
                 Error (Printf.sprintf "%s: malformed line %S" path line)
             | (Error _ as e), _ -> e)
           (Ok [])
      |> Result.map List.rev

let find (t : t) ~workload ~cell =
  List.find_map
    (fun ((w, c), d) ->
      if String.equal w workload && String.equal c cell then Some d else None)
    t

let save (t : t) =
  Out_channel.with_open_text path (fun oc ->
      output_string oc header;
      List.iter (fun ((w, c), d) -> Printf.fprintf oc "%s %s %s\n" w c d) t)
