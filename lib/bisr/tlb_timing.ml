module E = Bisram_tech.Electrical
module Pr = Bisram_tech.Process
module Org = Bisram_sram.Org
module Sz = Bisram_spice.Sizing

type estimate = {
  match_line : float;
  priority_encode : float;
  drive_out : float;
}

let total e = e.match_line +. e.priority_encode +. e.drive_out

let log2i n =
  let rec go acc k = if k <= 1 then acc else go (acc + 1) (k / 2) in
  go 0 n

let delay p ~org =
  let e = p.Pr.electrical in
  let feature_m = float_of_int p.Pr.feature_nm *. 1e-9 in
  let lambda_m = float_of_int p.Pr.lambda_nm *. 1e-9 in
  let addr_bits = max 1 (log2i (Org.rows org)) in
  let s = max 1 org.Org.spares in
  (* match line: one compare device per address bit discharges the
     shared line; pseudo-NMOS keeper fights the pull-down, so the
     effective resistance is several times the raw Ron *)
  let ron_cam = 4.0 *. E.ron_nmos e ~w:(4.0 *. lambda_m) ~l:feature_m in
  let c_per_bit =
    E.cdiff e ~feature_m ~w:(4.0 *. lambda_m) *. 2.0 (* two devices per bit *)
  in
  let match_line = 0.69 *. ron_cam *. (float_of_int addr_bits *. c_per_bit) in
  (* entry select: a ripple priority chain across the s entries (a pass
     device per entry), so the Elmore delay grows quadratically with the
     entry count — this is why masking is only guaranteed for 1-4
     spares *)
  let r_pass = E.ron_nmos e ~w:(4.0 *. lambda_m) ~l:feature_m in
  let c_stage = E.cdiff e ~feature_m ~w:(4.0 *. lambda_m) in
  let sf = float_of_int s in
  let priority_encode = 0.69 *. (sf *. (sf +. 1.0) /. 2.0) *. r_pass *. c_stage in
  (* drive the diverted row address onto the decoder input bus: two
     true/complement lines per address bit at ~50 fF each *)
  let bus_cap = float_of_int (2 * addr_bits) *. 50e-15 in
  let driver = Sz.balanced e ~feature_m ~drive:4.0 in
  let drive_out = 0.69 *. Sz.rpull_down e driver *. bus_cap in
  { match_line; priority_encode; drive_out }

let maskable p ~org ~drive =
  let access =
    Bisram_sram.Timing.total (Bisram_sram.Timing.access_time p org ~drive)
  in
  (* the ATD-triggered precharge phase is ~40% of the read cycle *)
  total (delay p ~org) <= 0.40 *. access
