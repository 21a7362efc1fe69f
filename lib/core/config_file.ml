module Pr = Bisram_tech.Process
module March = Bisram_bist.March
module Alg = Bisram_bist.Algorithms

let ( let* ) = Result.bind

let parse ~keys text =
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        if line = "" then go acc rest
        else
          match String.index_opt line '=' with
          | None -> Error ("missing '=' in: " ^ line)
          | Some i ->
              let key = String.trim (String.sub line 0 i) in
              let value =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              if key = "" || value = "" then
                Error ("empty key or value in: " ^ line)
              else go ((String.lowercase_ascii key, value) :: acc) rest)
  in
  let* kvs = go [] (String.split_on_char '\n' text) in
  match List.find_opt (fun (k, _) -> not (List.mem k keys)) kvs with
  | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
  | None -> Ok kvs

let process name =
  match Pr.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown process %S (expected %s)" name
           (String.concat ", " (List.map (fun p -> p.Pr.name) Pr.all)))

let march s =
  match Alg.find s with
  | Some m -> Ok m
  | None -> (
      match March.of_string ~name:"custom" s with
      | m -> Ok m
      | exception Invalid_argument e ->
          Error (Printf.sprintf "march %S: not a library name, and %s" s e))

let config ~process:p ~march:m ~words ~bpw ~bpc ~spares ~spare_cols ~drive
    ~strap =
  let* process = process p in
  let* march = march m in
  match
    Config.make ~spares ~spare_cols ~drive ~strap ~march ~process ~words ~bpw
      ~bpc ()
  with
  | cfg -> Ok cfg
  | exception Invalid_argument e -> Error e

let known_keys =
  [ "process"; "words"; "bpw"; "bpc"; "spares"; "spare_cols"; "drive"
  ; "strap"; "march"
  ]

let of_string text =
  let* kvs = parse ~keys:known_keys text in
  let get key default = Option.value (List.assoc_opt key kvs) ~default in
  let int key default =
    let s = get key (string_of_int default) in
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "key %S: %S is not an integer" key s)
  in
  let* words = int "words" 4096 in
  let* bpw = int "bpw" 128 in
  let* bpc = int "bpc" 8 in
  let* spares = int "spares" 4 in
  let* spare_cols = int "spare_cols" 0 in
  let* drive = int "drive" 2 in
  let* strap = int "strap" 32 in
  config ~process:(get "process" "CDA.7u3m1p") ~march:(get "march" "IFA-9")
    ~words ~bpw ~bpc ~spares ~spare_cols ~drive ~strap
