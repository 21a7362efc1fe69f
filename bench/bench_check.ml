(* Bench regression gate: compare a fresh bench run against the
   committed baseline and fail when throughput regressed beyond a
   noise tolerance.

   Only the two headline campaign throughput figures are gated —
   scalar trials_per_sec at jobs = 1 and lane-batched trials_per_sec
   at the widest lane level — because they are the numbers the
   campaign scheduler work is meant to protect and the only ones
   stable enough to gate on (kernel ns/op and parallel speedup are
   too machine-shaped).  The tolerance is deliberately wide (35% by
   default): a shared CI box is noisy, and the gate exists to catch
   an accidental 2x slowdown, not a 5% wobble.

   --advisory turns failures into warnings (exit 0) so low-core or
   heavily shared machines can keep the check in `make ci` without
   flaking the whole pipeline; the comparison is still printed. *)

module J = Bisram_obs.Json

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_file label path =
  match J.of_string (read_file path) with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "bench_check: %s %s: unparseable JSON: %s\n" label path e;
      exit 2
  | exception Sys_error e ->
      Printf.eprintf "bench_check: %s: %s\n" label e;
      exit 2

let number = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

(* trials_per_sec of the run whose [key] field equals [level], from
   the [runs] list of the named section; None when absent (skipped
   level, older schema, --quick artifact without the section) *)
let tps j ~section ~key ~level =
  match J.member section j with
  | None -> None
  | Some s -> (
      match J.member "runs" s with
      | Some (J.List runs) ->
          List.find_map
            (fun r ->
              match number (J.member key r) with
              | Some l when int_of_float l = level ->
                  number (J.member "trials_per_sec" r)
              | _ -> None)
            runs
      | _ -> None)

let () =
  let baseline = ref "BENCH_campaign.json" in
  let fresh = ref "" in
  let tolerance = ref 0.35 in
  let advisory = ref false in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: p :: rest ->
        baseline := p;
        parse rest
    | "--fresh" :: p :: rest ->
        fresh := p;
        parse rest
    | "--tolerance" :: t :: rest ->
        tolerance := float_of_string t;
        parse rest
    | "--advisory" :: rest ->
        advisory := true;
        parse rest
    | a :: _ ->
        Printf.eprintf "bench_check: unknown argument %S\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fresh = "" then begin
    Printf.eprintf "bench_check: --fresh FILE is required\n";
    exit 2
  end;
  if !tolerance <= 0.0 || !tolerance >= 1.0 then begin
    Printf.eprintf "bench_check: --tolerance must be in (0, 1)\n";
    exit 2
  end;
  let base = parse_file "baseline" !baseline in
  let cur = parse_file "fresh" !fresh in
  let failed = ref false in
  let gate name b c =
    match (b, c) with
    | Some b, Some c ->
        let floor = b *. (1.0 -. !tolerance) in
        let ok = c >= floor in
        Printf.printf
          "bench_check: %-28s baseline %10.1f/s  fresh %10.1f/s  floor \
           %10.1f/s  %s\n"
          name b c floor
          (if ok then "ok" else "REGRESSED");
        if not ok then failed := true
    | _ ->
        (* a figure absent on either side is reported, never fatal:
           baselines predating a section must not brick CI *)
        Printf.printf "bench_check: %-28s not present on both sides; skipped\n"
          name
  in
  gate "campaign jobs=1"
    (tps base ~section:"campaign" ~key:"jobs" ~level:1)
    (tps cur ~section:"campaign" ~key:"jobs" ~level:1);
  gate "lanes=62 jobs=1"
    (tps base ~section:"lanes" ~key:"lanes" ~level:62)
    (tps cur ~section:"lanes" ~key:"lanes" ~level:62);
  if !failed then
    if !advisory then begin
      Printf.printf
        "bench_check: regression beyond %.0f%% tolerance (advisory mode: \
         not failing the build)\n"
        (!tolerance *. 100.0);
      exit 0
    end
    else begin
      flush stdout;
      Printf.eprintf
        "bench_check: trials_per_sec regressed beyond %.0f%% tolerance\n"
        (!tolerance *. 100.0);
      exit 1
    end
  else print_endline "bench_check: throughput within tolerance"
