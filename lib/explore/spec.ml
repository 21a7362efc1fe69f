module Org = Bisram_sram.Org
module Pr = Bisram_tech.Process
module March = Bisram_bist.March
module Alg = Bisram_bist.Algorithms
module Chips = Bisram_cost.Chips
module Config = Bisram_core.Config
module Config_file = Bisram_core.Config_file
module Campaign = Bisram_campaign.Campaign
module J = Bisram_obs.Json

type t = {
  words : int list;
  bpw : int list;
  bpc : int list;
  spares : int list;
  spare_cols : int list;
  mean_defects : float list;
  alpha : float list;
  lambda : float list;
  process : Pr.t;
  march : March.t;
  drive : int;
  strap : int;
  chip : Chips.t;
  evaluators : string list;
  campaign_trials : int;
  campaign_seed : int;
  repair : string;
}

type point = {
  index : int;
  org : Org.t;
  mean_defects : float;
  alpha : float;
  lambda : float;
}

let known_evaluators = [ "area"; "yield"; "cost"; "reliability"; "campaign" ]

let default =
  { words = [ 4096 ]
  ; bpw = [ 4 ]
  ; bpc = [ 4 ]
  ; spares = [ 0; 4; 8; 16 ]
  ; spare_cols = [ 0 ]
  ; mean_defects = [ 0.5; 1.0; 2.0; 5.0; 10.0 ]
  ; alpha = [ 2.0 ]
  ; lambda = [ 1e-10 ]
  ; process = Pr.cda_07u3m1p
  ; march = Alg.ifa_9
  ; drive = 2
  ; strap = 32
  ; chip =
      (match Chips.find "Intel Pentium" with Some c -> c | None -> assert false)
  ; evaluators = [ "area"; "yield"; "cost"; "reliability" ]
  ; campaign_trials = 0
  ; campaign_seed = 42
  ; repair = "row-tlb"
  }

(* ------------------------------------------------------------------ *)
(* parsing: Config_file's key = value lines and name resolvers, with
   comma-separated lists for the range keys *)

let known_keys =
  [ "words"; "bpw"; "bpc"; "spares"; "spare_cols"; "mean_defects"; "alpha"
  ; "lambda"; "process"; "march"; "drive"; "strap"; "chip"; "evaluators"
  ; "campaign_trials"; "campaign_seed"; "repair"
  ]

let split_list s =
  s |> String.split_on_char ',' |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let ( let* ) = Result.bind

let int_list key s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match int_of_string_opt x with
        | Some v -> go (v :: acc) rest
        | None -> Error (Printf.sprintf "key %S: %S is not an integer" key x))
  in
  match split_list s with
  | [] -> Error (Printf.sprintf "key %S: empty list" key)
  | items -> go [] items

let float_list key s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match float_of_string_opt x with
        | Some v when Float.is_finite v -> go (v :: acc) rest
        | Some _ -> Error (Printf.sprintf "key %S: %S is not finite" key x)
        | None -> Error (Printf.sprintf "key %S: %S is not a number" key x))
  in
  match split_list s with
  | [] -> Error (Printf.sprintf "key %S: empty list" key)
  | items -> go [] items

let int_scalar key s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "key %S: %S is not an integer" key s)

let check_range key ok items =
  if List.for_all ok items then Ok items
  else Error (Printf.sprintf "key %S: value out of domain" key)

let of_string text =
  let* kvs = Config_file.parse ~keys:known_keys text in
  let get key = List.assoc_opt key kvs in
  let ints key dflt =
    match get key with Some s -> int_list key s | None -> Ok dflt
  in
  let floats key dflt =
    match get key with Some s -> float_list key s | None -> Ok dflt
  in
  let int1 key dflt =
    match get key with Some s -> int_scalar key s | None -> Ok dflt
  in
  let* words = ints "words" default.words in
  let* bpw = ints "bpw" default.bpw in
  let* bpc = ints "bpc" default.bpc in
  let* spares = ints "spares" default.spares in
  let* spare_cols = ints "spare_cols" default.spare_cols in
  let* mean_defects =
    Result.bind (floats "mean_defects" default.mean_defects)
      (check_range "mean_defects" (fun v -> v >= 0.0))
  in
  let* alpha =
    Result.bind (floats "alpha" default.alpha)
      (check_range "alpha" (fun v -> v > 0.0))
  in
  let* lambda =
    Result.bind (floats "lambda" default.lambda)
      (check_range "lambda" (fun v -> v > 0.0))
  in
  let* drive = int1 "drive" default.drive in
  let* strap = int1 "strap" default.strap in
  let* campaign_trials = int1 "campaign_trials" default.campaign_trials in
  let* campaign_seed = int1 "campaign_seed" default.campaign_seed in
  let resolve key resolver dflt =
    match get key with Some s -> resolver s | None -> Ok dflt
  in
  let* process =
    resolve "process" Config_file.process default.process
  in
  let* march = resolve "march" Config_file.march default.march in
  let* chip =
    match get "chip" with
    | None -> Ok default.chip
    | Some name -> (
        match Chips.find name with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown chip %S" name))
  in
  let* evaluators =
    match get "evaluators" with
    | None ->
        Ok
          (default.evaluators
          @ if campaign_trials > 0 then [ "campaign" ] else [])
    | Some s -> (
        let named = split_list s in
        match
          List.find_opt
            (fun e -> not (List.mem e known_evaluators))
            named
        with
        | Some e -> Error (Printf.sprintf "unknown evaluator %S" e)
        | None ->
            if named = [] then Error "key \"evaluators\": empty list"
            else
              (* fixed report order, regardless of spelling order *)
              Ok
                (List.filter
                   (fun e -> List.mem e named)
                   known_evaluators))
  in
  let* repair =
    match get "repair" with
    | None -> Ok default.repair
    | Some s when Option.is_some (Campaign.repair_of_name s) -> Ok s
    | Some s ->
        Error
          (Printf.sprintf
             "key \"repair\": unknown strategy %S (expected %s)" s
             (String.concat ", "
                (List.map Campaign.repair_name Campaign.repairs)))
  in
  let* () =
    if campaign_trials < 0 then
      Error "key \"campaign_trials\": must be >= 0"
    else if List.mem "campaign" evaluators && campaign_trials = 0 then
      Error
        "the campaign evaluator needs campaign_trials > 0 (it runs a \
         Monte Carlo campaign per point)"
    else Ok ()
  in
  Ok
    { words; bpw; bpc; spares; spare_cols; mean_defects; alpha
    ; lambda; process; march; drive; strap; chip; evaluators
    ; campaign_trials; campaign_seed; repair
    }

(* ------------------------------------------------------------------ *)
(* lattice expansion *)

let expand (t : t) =
  let points = ref [] and skipped = ref 0 and index = ref 0 in
  List.iter
    (fun words ->
      List.iter
        (fun bpw ->
          List.iter
            (fun bpc ->
              List.iter
                (fun spares ->
                  List.iter
                    (fun spare_cols ->
                      match Org.make ~spares ~spare_cols ~words ~bpw ~bpc () with
                      | exception Invalid_argument _ -> incr skipped
                      | org ->
                          List.iter
                            (fun mean_defects ->
                              List.iter
                                (fun alpha ->
                                  List.iter
                                    (fun lambda ->
                                      points :=
                                        { index = !index; org; mean_defects
                                        ; alpha; lambda
                                        }
                                        :: !points;
                                      incr index)
                                    t.lambda)
                                t.alpha)
                            t.mean_defects)
                    t.spare_cols)
                t.spares)
            t.bpc)
        t.bpw)
    t.words;
  (Array.of_list (List.rev !points), !skipped)

let config_of_point t p =
  Config.make ~spares:p.org.Org.spares ~spare_cols:p.org.Org.spare_cols
    ~drive:t.drive ~strap:t.strap
    ~march:t.march ~process:t.process ~words:p.org.Org.words
    ~bpw:p.org.Org.bpw ~bpc:p.org.Org.bpc ()

(* ------------------------------------------------------------------ *)
(* cache-key material: the exact inputs each evaluator consumes *)

let fk = Printf.sprintf "%.17g"

let org_key org =
  (* the spare-column suffix appears only when non-zero so cache entries
     from row-only sweeps stay addressable under the same key *)
  Printf.sprintf "w%d.b%d.c%d.s%d%s" org.Org.words org.Org.bpw org.Org.bpc
    org.Org.spares
    (if org.Org.spare_cols > 0 then Printf.sprintf ".sc%d" org.Org.spare_cols
     else "")

(* area (and through it yield and cost) depends on the full compiled
   design: organization, process, gate sizing, strapping and the march
   microprogram (the TRPLA size feeds the logic area) *)
let design_key t org =
  Printf.sprintf "%s|p=%s|d=%d|t=%d|m=%s" (org_key org) t.process.Pr.name
    t.drive t.strap
    (March.to_string t.march)

let cache_key t p ~evaluator =
  match evaluator with
  | "area" -> "area|" ^ design_key t p.org
  | "yield" ->
      Printf.sprintf "yield|%s|n=%s|a=%s" (design_key t p.org)
        (fk p.mean_defects) (fk p.alpha)
  | "cost" ->
      Printf.sprintf "cost|%s|a=%s|chip=%s" (design_key t p.org) (fk p.alpha)
        t.chip.Chips.name
  | "reliability" ->
      Printf.sprintf "reliability|%s|l=%s" (org_key p.org) (fk p.lambda)
  | "campaign" ->
      (* same back-compat rule as org_key: the repair component is only
         spelled when a non-default strategy is selected *)
      Printf.sprintf "campaign|%s|m=%s|n=%s|a=%s|trials=%d|seed=%d%s"
        (org_key p.org)
        (March.to_string t.march)
        (fk p.mean_defects) (fk p.alpha) t.campaign_trials t.campaign_seed
        (if t.repair <> "row-tlb" then "|r=" ^ t.repair else "")
  | e -> invalid_arg ("Spec.cache_key: unknown evaluator " ^ e)

(* ------------------------------------------------------------------ *)
(* report echo *)

let to_json t =
  let ints l = J.List (List.map (fun v -> J.Int v) l) in
  let floats l = J.List (List.map (fun v -> J.Float v) l) in
  J.Obj
    [ ("words", ints t.words)
    ; ("bpw", ints t.bpw)
    ; ("bpc", ints t.bpc)
    ; ("spares", ints t.spares)
    ; ("spare_cols", ints t.spare_cols)
    ; ("mean_defects", floats t.mean_defects)
    ; ("alpha", floats t.alpha)
    ; ("lambda", floats t.lambda)
    ; ("process", J.String t.process.Pr.name)
    ; ("march", J.String (March.to_string t.march))
    ; ("drive", J.Int t.drive)
    ; ("strap", J.Int t.strap)
    ; ("chip", J.String t.chip.Chips.name)
    ; ("evaluators", J.List (List.map (fun e -> J.String e) t.evaluators))
    ; ("campaign_trials", J.Int t.campaign_trials)
    ; ("campaign_seed", J.Int t.campaign_seed)
    ; ("repair", J.String t.repair)
    ]
