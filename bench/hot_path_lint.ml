(* Hot-path lint: the per-op code of the model, the march engine, the
   controller, the TLB and the escape sweep must not call polymorphic
   comparison or hashing.  A polymorphic [min], [max] or [compare] goes
   through [caml_compare]/[compare_val] on every call, and the
   polymorphic [Hashtbl] through [caml_hash] as well.  The lint parses
   each file and reports every unqualified (or [Stdlib.]) [min], [max]
   and [compare] and every [Hashtbl] value, so comments and strings
   never match; [Int.min], [Int.compare] and functorial tables pass.
     dune exec bench/hot_path_lint.exe -- FILE.ml ...
   Exits 1 if any file has a hit. *)

let banned = function
  | Longident.Lident ("min" | "max" | "compare")
  | Ldot (Lident "Stdlib", ("min" | "max" | "compare"))
  | Ldot (Lident "Hashtbl", _)
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), _) ->
      true
  | _ -> false

let lint path =
  let ic = open_in_bin path in
  let lexbuf = Lexing.from_channel ic in
  Location.init lexbuf path;
  let ast =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Parse.implementation lexbuf)
  in
  let hits = ref 0 in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } when banned txt ->
        incr hits;
        Format.eprintf "%a@.hot-path-lint: polymorphic %s@." Location.print_loc
          loc
          (String.concat "." (Longident.flatten txt))
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it ast;
  !hits

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: hot_path_lint FILE.ml ...";
    exit 2
  end;
  let hits = List.fold_left (fun n f -> n + lint f) 0 files in
  if hits > 0 then exit 1
