module R = Bisram_geometry.Rect

type t = { placement : Placer.result; rules : Bisram_tech.Rules.t }

let make rules blocks = { placement = Placer.place blocks; rules }

let routing t = Router.route t.rules t.placement

let epsilon t = (1.0 /. t.placement.Placer.rectangularity) -. 1.0

let render ?(width = 72) t =
  let bbox = t.placement.Placer.bbox in
  let bw = max 1 (R.width bbox) and bh = max 1 (R.height bbox) in
  let cols = width in
  let rows = max 8 (cols * bh / bw / 2) in
  (* /2: characters are taller than wide *)
  let rows = min rows 48 in
  let grid = Array.make_matrix rows cols ' ' in
  let xof x = (x - bbox.R.x0) * (cols - 1) / bw in
  let yof y = (rows - 1) - ((y - bbox.R.y0) * (rows - 1) / bh) in
  List.iter
    (fun pl ->
      let r = Placer.rect_of_placement pl in
      let x0 = xof r.R.x0 and x1 = xof r.R.x1 in
      let y1 = yof r.R.y0 and y0 = yof r.R.y1 in
      for x = x0 to x1 do
        if y0 >= 0 && y0 < rows then grid.(y0).(x) <- '-';
        if y1 >= 0 && y1 < rows then grid.(y1).(x) <- '-'
      done;
      for y = y0 to y1 do
        if x0 >= 0 && x0 < cols then grid.(y).(x0) <- '|';
        if x1 >= 0 && x1 < cols then grid.(y).(x1) <- '|'
      done;
      grid.(y0).(x0) <- '+';
      grid.(y0).(x1) <- '+';
      grid.(y1).(x0) <- '+';
      grid.(y1).(x1) <- '+';
      (* label *)
      let label = pl.Placer.block.Block.name in
      let ly = (y0 + y1) / 2 in
      let avail = x1 - x0 - 1 in
      if avail > 0 then begin
        let label =
          if String.length label > avail then String.sub label 0 avail
          else label
        in
        let lx = x0 + 1 + ((avail - String.length label) / 2) in
        String.iteri (fun i c -> grid.(ly).(lx + i) <- c) label
      end)
    t.placement.Placer.placements;
  let buf = Buffer.create (rows * (cols + 1)) in
  Array.iter
    (fun line ->
      Buffer.add_string buf (String.init cols (fun i -> line.(i)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,epsilon = %.3f@]" Placer.pp t.placement
    Router.pp (routing t) (epsilon t)
