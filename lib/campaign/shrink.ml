(* Greedy delta debugging over a list.

   [minimize_failing ~keep items] assumes [keep items = true] and
   returns a sublist (in the original order) on which [keep] still
   holds and from which no single element can be removed without
   losing the property; [minimize] checks the assumption first.
   The search first tries to drop large contiguous chunks (halving the
   chunk size on failure, the ddmin schedule), restarting greedily from
   the head after every successful removal, so typical fault-set
   reproducers collapse in O(n log n) predicate evaluations. *)

let drop_chunk items ~start ~len =
  List.filteri (fun i _ -> i < start || i >= start + len) items

let minimize_failing ~keep items =
  let rec shrink items size =
    let n = List.length items in
    if n <= 1 || size < 1 then items
    else
      let size = min size n in
      (* never propose the unchanged list; dropping all of a list of
         exactly [size] elements is allowed iff [keep []] says so *)
      let rec try_from start =
        if start >= n then None
        else
          let len = min size (n - start) in
          let candidate = drop_chunk items ~start ~len in
          if keep candidate then Some candidate else try_from (start + size)
      in
      match try_from 0 with
      | Some smaller -> shrink smaller (min size (List.length smaller))
      | None -> shrink items (size / 2)
  in
  let half = max 1 (List.length items / 2) in
  shrink items half

let minimize ~keep items =
  if not (keep items) then items else minimize_failing ~keep items
