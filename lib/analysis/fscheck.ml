(* File-system checks — the one rule family the AST passes cannot
   express. Lives in the library (rather than the CLI) so the pos/neg
   fixture trees under test/fixtures/missing_mli/ can exercise it. *)

let collect_files root =
  let rec go path acc =
    match Sys.is_directory path with
    | true ->
        let entries =
          List.sort String.compare (Array.to_list (Sys.readdir path))
        in
        List.fold_left
          (fun acc entry ->
            (* fixtures/ and golden/ trees hold deliberate rule
               violations and non-source data; analyzing them would
               report the analyzer's own test corpus. *)
            if
              List.mem entry [ "_build"; ".git"; "fixtures"; "golden" ]
            then acc
            else go (Filename.concat path entry) acc)
          acc entries
    | false ->
        if
          Filename.check_suffix path ".ml"
          || Filename.check_suffix path ".mli"
        then path :: acc
        else acc
    | exception Sys_error _ -> acc
  in
  go root []

(* Every library compilation unit must be sealed by an interface. Only
   applies to .ml files with a "lib" path segment — bin/, bench/ and
   test/ hold executables and test runners. *)
let missing_mli files =
  List.filter_map
    (fun path ->
      let in_lib =
        List.exists
          (String.equal "lib")
          (String.split_on_char '/' (Filename.dirname path))
        || String.equal (Filename.dirname path) "lib"
      in
      if
        in_lib
        && Filename.check_suffix path ".ml"
        && not (Sys.file_exists (path ^ "i"))
      then
        Some
          {
            Finding.file = path;
            line = 1;
            col = 0;
            rule = Rule.missing_mli.name;
            severity = Finding.Error;
            message = "compilation unit has no sealing .mli interface";
          }
      else None)
    files
