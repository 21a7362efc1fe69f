(* The benchmark workloads: what each one runs, at which size, and how
   its inputs follow from the seed.  BENCHMARK.md gives the reasons. *)

module Campaign = Bisram_campaign.Campaign
module Org = Bisram_sram.Org
module Spec = Bisram_explore.Spec

type campaign = {
  mean : float;  (** Poisson mean of the per-trial fault count *)
  spare_cols : int;
  repair : Campaign.repair;
  pool_jobs : int;  (** domains of the traced run's pool-efficiency probe *)
  window : int;
      (** trials per measured [Campaign.run] call; window [k] of a run
          covers trials [k * window ..] of one campaign at the seed *)
  block : int;
      (** trials of the pinned reference output (the first [block]
          trials at the seed) and of each traced re-drive step *)
}

type kind =
  | Campaign of campaign
  | Explore of string  (** the spec file *)

type t = {
  name : string;
  kind : kind;
  inputs : int;
      (** inputs an end-to-end run times: campaign windows 0 .. inputs-1
          at the seed, or repeats of the one explore sweep *)
  round_s : float;
      (** nominal seconds of one round over the inputs, measured on a
          2-vCPU Xeon host: a run of S seconds makes S / round_s
          rounds.  Inputs and rounds are both fixed by S alone, so
          every commit times the same trials the same number of times *)
}

let nproc = Domain.recommended_domain_count ()

(* lane width of every campaign workload: one trial per bit *)
let lanes = Campaign.max_lanes

let default_seed = 7
let held_back_seed = 1999

let all =
  let p3 =
    { mean = 3.0; spare_cols = 0; repair = Campaign.Row_tlb
    ; pool_jobs = min 2 nproc; window = 62; block = 496 }
  in
  [ { name = "campaign-p3"; kind = Campaign p3; inputs = 24; round_s = 5.0 }
  ; { name = "campaign-rare"
    ; kind =
        Campaign
          { p3 with mean = 0.002; pool_jobs = 1; window = 24_800; block = 24_800 }
    ; inputs = 14; round_s = 3.5 }
  ; { name = "campaign-2d"
    ; kind =
        Campaign
          { p3 with spare_cols = 2; repair = Campaign.Bira Bisram_bira.Bira.Exhaustive }
    ; inputs = 13; round_s = 5.0 }
  ; { name = "explore-cold"
    ; kind = Explore "perfbench/explore_cold.spec"; inputs = 2; round_s = 5.0 }
  ]

(* End-to-end timing rounds of a run of [seconds]: at least three, so
   every input's best time is a best of several. *)
let rounds w ~seconds = max 3 (int_of_float (Float.round (seconds /. w.round_s)))

let find name = List.find_opt (fun w -> w.name = name) all

let pool_jobs w = match w.kind with Campaign c -> c.pool_jobs | Explore _ -> 1

(* Default organization (64x8 words, bpc 4, 4 spare rows), IFA-9, the
   default fault mix, shrinking on: only the density, the spare
   columns and the repair flow vary. *)
let campaign_config c ~seed ~trials =
  let org = Org.make ~spare_cols:c.spare_cols ~words:64 ~bpw:8 ~bpc:4 () in
  Campaign.make_config ~org ~mode:(Campaign.Poisson c.mean) ~repair:c.repair
    ~trials ~seed ()

(* The spec text with its campaign evaluator reseeded. *)
let explore_spec text ~seed =
  match Spec.of_string text with
  | Ok s -> { s with Spec.campaign_seed = seed }
  | Error e -> failwith ("explore spec: " ^ e)
