module P = Bisram_geometry.Point
module R = Bisram_geometry.Rect
module Port = Bisram_layout.Port

type placement = {
  block : Block.t;
  at : P.t;
  stretch_w : int;
  stretch_h : int;
}

type result = {
  placements : placement list;
  bbox : R.t;
  dead_space : int;
  rectangularity : float;
}

let placed_w pl = pl.block.Block.w + pl.stretch_w
let placed_h pl = pl.block.Block.h + pl.stretch_h

let rect_of_placement pl =
  R.of_size ~w:(placed_w pl) ~h:(placed_h pl) pl.at

let pin_point pl pin =
  (* stretching extends the far edges; pins keep their offsets *)
  P.add pl.at (Block.pin_position pl.block pin)

let overlaps_any rect placements =
  List.exists (fun pl -> R.overlaps rect (rect_of_placement pl)) placements

let bbox_of placements =
  match placements with
  | [] -> R.make 0 0 0 0
  | pl :: rest ->
      List.fold_left
        (fun acc p -> R.join acc (rect_of_placement p))
        (rect_of_placement pl) rest

(* Sum of min distances from each pin of the candidate to an
   already-placed pin of the same net. *)
let wire_estimate (candidate : placement) placements =
  List.fold_left
    (fun acc pin ->
      let mine = pin_point candidate pin in
      let best =
        List.fold_left
          (fun best pl ->
            List.fold_left
              (fun best other ->
                if other.Block.net = pin.Block.net then
                  Int.min best (P.manhattan mine (pin_point pl other))
                else best)
              best pl.block.Block.pins)
          max_int placements
      in
      if best = max_int then acc else acc + best)
    0 candidate.block.Block.pins

(* Candidate positions: abutting each placed block on its east or north
   side, plus port-aligned variants, plus the two global shelf spots. *)
let candidates_for (b : Block.t) placements bbox =
  let base =
    List.concat_map
      (fun pl ->
        let r = rect_of_placement pl in
        let right = P.make r.R.x1 r.R.y0 in
        let top = P.make r.R.x0 r.R.y1 in
        (* port alignment: facing pins slide the block along the edge *)
        let aligned_right =
          List.concat_map
            (fun (mine : Block.pin) ->
              if mine.Block.edge = Port.West then
                List.filter_map
                  (fun (theirs : Block.pin) ->
                    if
                      theirs.Block.edge = Port.East
                      && theirs.Block.net = mine.Block.net
                    then
                      Some
                        (P.make r.R.x1
                           (pl.at.P.y + theirs.Block.offset - mine.Block.offset))
                    else None)
                  pl.block.Block.pins
              else [])
            b.Block.pins
        in
        let aligned_top =
          List.concat_map
            (fun (mine : Block.pin) ->
              if mine.Block.edge = Port.South then
                List.filter_map
                  (fun (theirs : Block.pin) ->
                    if
                      theirs.Block.edge = Port.North
                      && theirs.Block.net = mine.Block.net
                    then
                      Some
                        (P.make
                           (pl.at.P.x + theirs.Block.offset - mine.Block.offset)
                           r.R.y1)
                    else None)
                  pl.block.Block.pins
              else [])
            b.Block.pins
        in
        (right :: top :: aligned_right) @ aligned_top)
      placements
  in
  P.make bbox.R.x1 0 :: P.make 0 bbox.R.y1 :: base

(* Stretch the block to match the facing neighbour's edge when the
   mismatch is modest (<= 30%), so ports connect by abutment. *)
let stretching (b : Block.t) at placements =
  let my_rect = R.of_size ~w:b.Block.w ~h:b.Block.h at in
  let stretch_h =
    List.fold_left
      (fun acc pl ->
        let r = rect_of_placement pl in
        (* side-by-side abutment, bottoms aligned *)
        if (r.R.x1 = my_rect.R.x0 || my_rect.R.x1 = r.R.x0) && r.R.y0 = my_rect.R.y0
        then
          let nh = R.height r and mh = b.Block.h in
          if nh > mh && float_of_int (nh - mh) <= 0.3 *. float_of_int mh then
            Int.max acc (nh - mh)
          else acc
        else acc)
      0 placements
  in
  let stretch_w =
    List.fold_left
      (fun acc pl ->
        let r = rect_of_placement pl in
        if (r.R.y1 = my_rect.R.y0 || my_rect.R.y1 = r.R.y0) && r.R.x0 = my_rect.R.x0
        then
          let nw = R.width r and mw = b.Block.w in
          if nw > mw && float_of_int (nw - mw) <= 0.3 *. float_of_int mw then
            Int.max acc (nw - mw)
          else acc
        else acc)
      0 placements
  in
  (stretch_w, stretch_h)

let place blocks =
  if blocks = [] then invalid_arg "Placer.place: no blocks";
  let sorted =
    List.sort (fun a b -> Int.compare (Block.area b) (Block.area a)) blocks
  in
  let scale =
    sqrt (float_of_int (List.fold_left (fun a b -> a + Block.area b) 0 blocks))
  in
  let place_one placements b =
    match placements with
    | [] -> [ { block = b; at = P.zero; stretch_w = 0; stretch_h = 0 } ]
    | _ ->
        let bbox = bbox_of placements in
        let best = ref None in
        List.iter
          (fun at ->
            let trial = { block = b; at; stretch_w = 0; stretch_h = 0 } in
            let rect = rect_of_placement trial in
            if not (overlaps_any rect placements) then begin
              let bbox' = R.join bbox rect in
              let dead =
                R.area bbox'
                - List.fold_left
                    (fun a pl -> a + R.area (rect_of_placement pl))
                    (R.area rect) placements
              in
              let wl = wire_estimate trial placements in
              (* rectangularity (dead space) first; wirelength breaks
                 ties and decides between near-equal candidates *)
              let cost = float_of_int dead +. (float_of_int wl *. scale /. 100.0) in
              match !best with
              | Some (c, _) when c <= cost -> ()
              | _ -> best := Some (cost, trial)
            end)
          (candidates_for b placements bbox);
        let chosen =
          match !best with
          | Some (_, t) -> t
          | None ->
              (* fall back to the shelf right of everything *)
              { block = b
              ; at = P.make (bbox_of placements).R.x1 0
              ; stretch_w = 0
              ; stretch_h = 0
              }
        in
        let sw, sh = stretching b chosen.at placements in
        let stretched = { chosen with stretch_w = sw; stretch_h = sh } in
        let final =
          if overlaps_any (rect_of_placement stretched) placements then chosen
          else stretched
        in
        final :: placements
  in
  let placements = List.fold_left place_one [] sorted in
  let bbox = bbox_of placements in
  let used =
    List.fold_left (fun a pl -> a + R.area (rect_of_placement pl)) 0 placements
  in
  { placements = List.rev placements
  ; bbox
  ; dead_space = R.area bbox - used
  ; rectangularity = float_of_int used /. float_of_int (Int.max 1 (R.area bbox))
  }

module Nets = Hashtbl.Make (String)

let hpwl result =
  (* group pins by net over all placements *)
  let nets = Nets.create 32 in
  List.iter
    (fun pl ->
      List.iter
        (fun pin ->
          let p = pin_point pl pin in
          let cur =
            match Nets.find_opt nets pin.Block.net with
            | Some r -> R.join r (R.make p.P.x p.P.y p.P.x p.P.y)
            | None -> R.make p.P.x p.P.y p.P.x p.P.y
          in
          Nets.replace nets pin.Block.net cur)
        pl.block.Block.pins)
    result.placements;
  Nets.fold (fun _ r acc -> acc + R.width r + R.height r) nets 0

let find result name =
  List.find_opt (fun pl -> pl.block.Block.name = name) result.placements

let pp ppf r =
  Format.fprintf ppf "bbox %dx%d, dead %d, rectangularity %.3f"
    (R.width r.bbox) (R.height r.bbox) r.dead_space r.rectangularity
