type t = { limit : int; mutable v : int }

let create ~limit =
  if limit <= 0 then invalid_arg "Addgen.create: limit must be positive";
  { limit; v = 0 }

let limit t = t.limit

let start ~dir t = match dir with March.Down -> t.limit - 1 | March.Up | March.Either -> 0

let reset t ~dir = t.v <- start ~dir t
let value t = t.v

let step t ~dir =
  match dir with
  | March.Up | March.Either ->
      if t.v = t.limit - 1 then begin
        t.v <- 0;
        true
      end
      else begin
        t.v <- t.v + 1;
        false
      end
  | March.Down ->
      if t.v = 0 then begin
        t.v <- t.limit - 1;
        true
      end
      else begin
        t.v <- t.v - 1;
        false
      end

let width t =
  let rec go acc k = if k >= t.limit then acc else go (acc + 1) (k * 2) in
  go 0 1

let advance t ~dir n =
  let v =
    match dir with March.Down -> t.v - n | March.Up | March.Either -> t.v + n
  in
  if n < 0 || v < 0 || v >= t.limit then
    invalid_arg "Addgen.advance: the counter would wrap";
  t.v <- v
