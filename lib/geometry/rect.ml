type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make xa ya xb yb =
  { x0 = min xa xb; y0 = min ya yb; x1 = max xa xb; y1 = max ya yb }

let of_size ~w ~h (p : Point.t) =
  assert (w >= 0 && h >= 0);
  { x0 = p.Point.x; y0 = p.Point.y; x1 = p.Point.x + w; y1 = p.Point.y + h }

let width r = r.x1 - r.x0
let height r = r.y1 - r.y0
let area r = width r * height r
let center r = Point.make ((r.x0 + r.x1) / 2) ((r.y0 + r.y1) / 2)
let lower_left r = Point.make r.x0 r.y0
let is_empty r = r.x0 = r.x1 || r.y0 = r.y1
let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1

let compare a b =
  let c = Int.compare a.x0 b.x0 in
  if c <> 0 then c
  else
    let c = Int.compare a.y0 b.y0 in
    if c <> 0 then c
    else
      let c = Int.compare a.x1 b.x1 in
      if c <> 0 then c else Int.compare a.y1 b.y1

let translate (d : Point.t) r =
  { x0 = r.x0 + d.Point.x
  ; y0 = r.y0 + d.Point.y
  ; x1 = r.x1 + d.Point.x
  ; y1 = r.y1 + d.Point.y
  }

let transform o r =
  let a = Orient.apply o (Point.make r.x0 r.y0)
  and b = Orient.apply o (Point.make r.x1 r.y1) in
  make a.Point.x a.Point.y b.Point.x b.Point.y

let inflate d r =
  let r' = { x0 = r.x0 - d; y0 = r.y0 - d; x1 = r.x1 + d; y1 = r.y1 + d } in
  if r'.x0 > r'.x1 || r'.y0 > r'.y1 then
    let c = center r in
    { x0 = c.Point.x; y0 = c.Point.y; x1 = c.Point.x; y1 = c.Point.y }
  else r'

let contains_point r (p : Point.t) =
  r.x0 <= p.Point.x && p.Point.x <= r.x1 && r.y0 <= p.Point.y && p.Point.y <= r.y1

let contains ~outer ~inner =
  outer.x0 <= inner.x0 && outer.y0 <= inner.y0 && inner.x1 <= outer.x1
  && inner.y1 <= outer.y1

let touches a b = a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1
let overlaps a b = a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1

let inter a b =
  if touches a b then
    Some
      { x0 = max a.x0 b.x0
      ; y0 = max a.y0 b.y0
      ; x1 = min a.x1 b.x1
      ; y1 = min a.y1 b.y1
      }
  else None

let join a b =
  { x0 = min a.x0 b.x0
  ; y0 = min a.y0 b.y0
  ; x1 = max a.x1 b.x1
  ; y1 = max a.y1 b.y1
  }

let bbox = function
  | [] -> invalid_arg "Rect.bbox: empty list"
  | r :: rs -> List.fold_left join r rs

let abuts a b =
  (not (overlaps a b))
  &&
  match inter a b with
  | None -> false
  | Some i -> width i > 0 || height i > 0

let pp ppf r = Format.fprintf ppf "[%d,%d %d,%d]" r.x0 r.y0 r.x1 r.y1
let to_string r = Format.asprintf "%a" pp r
