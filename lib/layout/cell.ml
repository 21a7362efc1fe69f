module R = Bisram_geometry.Rect
module T = Bisram_geometry.Transform
module P = Bisram_geometry.Point
module L = Bisram_tech.Layer

type t = {
  name : string;
  bbox : R.t;
  shapes : (L.t * R.t) list;
  ports : Port.t list;
}

let make ~name ~w ~h shapes ports =
  if w < 0 || h < 0 then invalid_arg "Cell.make: negative size";
  { name; bbox = R.make 0 0 w h; shapes; ports }

let width t = R.width t.bbox
let height t = R.height t.bbox
let area t = R.area t.bbox

let transform tr t =
  { t with
    bbox = T.apply_rect tr t.bbox
  ; shapes = List.map (fun (l, r) -> (l, T.apply_rect tr r)) t.shapes
  ; ports = List.map (Port.transform tr) t.ports
  }

let translate d t = transform (T.translation d) t

let normalize t =
  let ll = R.lower_left t.bbox in
  translate (P.neg ll) t

let find_port t name = List.find_opt (fun p -> p.Port.name = name) t.ports

let shapes_on t layer =
  List.filter_map
    (fun (l, r) -> if L.equal l layer then Some r else None)
    t.shapes

let drc rules t =
  (* a shape reaching the abutment boundary merges with the neighbouring
     cell's copy (shared wells, power rails), so its drawn width inside
     one cell may legally be below minimum *)
  let merges_at_boundary (r : R.t) =
    r.R.x0 = t.bbox.R.x0 || r.R.x1 = t.bbox.R.x1 || r.R.y0 = t.bbox.R.y0
    || r.R.y1 = t.bbox.R.y1
  in
  List.concat_map
    (fun layer ->
      let rects = shapes_on t layer in
      let widths =
        List.filter_map
          (fun r ->
            if merges_at_boundary r then None
            else Bisram_tech.Rules.check_width rules layer r)
          rects
      in
      widths @ Bisram_tech.Rules.check_spacing rules layer rects)
    L.all

let merge ~name cells =
  match cells with
  | [] -> invalid_arg "Cell.merge: empty"
  | first :: _ ->
      let bbox =
        List.fold_left (fun acc c -> R.join acc c.bbox) first.bbox cells
      in
      { name
      ; bbox
      ; shapes = List.concat_map (fun c -> c.shapes) cells
      ; ports = List.concat_map (fun c -> c.ports) cells
      }

let pp ppf t =
  Format.fprintf ppf "%s %dx%d (%d shapes, %d ports)" t.name (width t)
    (height t) (List.length t.shapes) (List.length t.ports)
