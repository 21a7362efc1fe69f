(* Test fixtures (golden reports, example specs), named relative to
   the test directory.  Dune copies them next to the test binary for
   [dune runtest]; after a bare [dune build] only the source tree has
   them, and the binary sits in [_build/default/test], three levels
   below the root.  Trying both lets a test binary pass from any
   working directory. *)
let read name =
  let here = Filename.dirname Sys.executable_name in
  let dir =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d name))
      [ here; Filename.concat here "../../../test" ]
  in
  In_channel.with_open_bin
    (Filename.concat (Option.value dir ~default:here) name)
    In_channel.input_all
