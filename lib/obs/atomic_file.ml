let write ~prefix path contents =
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:(Filename.dirname path) prefix ".tmp"
  in
  match
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
