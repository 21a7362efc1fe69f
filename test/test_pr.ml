(* Tests for the macrocell placer and over-the-cell router. *)

module P = Bisram_geometry.Point
module R = Bisram_geometry.Rect
module Port = Bisram_layout.Port
module Block = Bisram_pr.Block
module Placer = Bisram_pr.Placer
module Router = Bisram_pr.Router
module Floorplan = Bisram_pr.Floorplan

let rules = Bisram_tech.Rules.scmos

let blk ?(pins = []) name w h = Block.make ~name ~w ~h pins

let pin net edge offset = { Block.net; edge; offset }

let no_overlaps result =
  let rects = List.map Placer.rect_of_placement result.Placer.placements in
  let arr = Array.of_list rects in
  let ok = ref true in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      if R.overlaps arr.(i) arr.(j) then ok := false
    done
  done;
  !ok

let test_block_validation () =
  (match Block.make ~name:"b" ~w:10 ~h:10 [ pin "x" Port.North 11 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "offset beyond edge accepted");
  let b = blk "b" 10 20 ~pins:[ pin "x" Port.East 5 ] in
  Alcotest.(check int) "area" 200 (Block.area b);
  let p = Block.pin_position b (List.hd b.Block.pins) in
  Alcotest.(check bool) "east pin at x=w" true (P.equal p (P.make 10 5))

let test_single_block () =
  let r = Placer.place [ blk "a" 100 50 ] in
  Alcotest.(check int) "dead 0" 0 r.Placer.dead_space;
  Alcotest.(check (float 1e-9)) "rectangularity 1" 1.0 r.Placer.rectangularity

let test_two_blocks_no_overlap () =
  let r = Placer.place [ blk "a" 100 50; blk "b" 100 50 ] in
  Alcotest.(check bool) "no overlap" true (no_overlaps r);
  (* two equal blocks tile perfectly *)
  Alcotest.(check int) "dead 0" 0 r.Placer.dead_space

let test_many_blocks_rectangular () =
  let blocks =
    [ blk "big" 400 300; blk "tall" 80 300; blk "wide" 480 60
    ; blk "s1" 100 60; blk "s2" 120 60; blk "s3" 90 50
    ]
  in
  let r = Placer.place blocks in
  Alcotest.(check bool) "no overlap" true (no_overlaps r);
  Alcotest.(check bool)
    (Printf.sprintf "rectangularity %.3f > 0.7" r.Placer.rectangularity)
    true
    (r.Placer.rectangularity > 0.7)

let test_port_alignment_pulls_together () =
  (* the smaller block can slide along the larger one's edge at no dead
     space cost: port alignment must make the shared pins coincide *)
  let a = blk "a" 200 100 ~pins:[ pin "x" Port.East 70 ] in
  let b = blk "b" 100 60 ~pins:[ pin "x" Port.West 30 ] in
  let r = Placer.place [ a; b ] in
  let pa = Option.get (Placer.find r "a") in
  let pb = Option.get (Placer.find r "b") in
  let ppa = Placer.pin_point pa (List.hd pa.Placer.block.Block.pins) in
  let ppb = Placer.pin_point pb (List.hd pb.Placer.block.Block.pins) in
  Alcotest.(check int) "pins coincide" 0 (P.manhattan ppa ppb)

let test_stretching_matches_edges () =
  (* a slightly shorter block abutting a taller one is stretched *)
  let a = blk "a" 200 100 ~pins:[ pin "x" Port.East 50 ] in
  let b = blk "b" 100 80 ~pins:[ pin "x" Port.West 50 ] in
  let r = Placer.place [ a; b ] in
  let pb = Option.get (Placer.find r "b") in
  Alcotest.(check bool)
    (Printf.sprintf "stretched by %d" pb.Placer.stretch_h)
    true
    (pb.Placer.stretch_h > 0 || pb.Placer.at.P.y <> 0)

let test_hpwl_lower_with_connection () =
  (* placement of connected blocks yields smaller wirelength than a
     deliberately bad manual placement *)
  let a = blk "a" 100 100 ~pins:[ pin "n" Port.East 50 ] in
  let b = blk "b" 100 100 ~pins:[ pin "n" Port.West 50 ] in
  let r = Placer.place [ a; b ] in
  Alcotest.(check bool) "hpwl small" true (Placer.hpwl r <= 210)

let test_router_abutted_nets_free () =
  let a = blk "a" 100 100 ~pins:[ pin "n" Port.East 50 ] in
  let b = blk "b" 100 100 ~pins:[ pin "n" Port.West 50 ] in
  let fp = Floorplan.make rules [ a; b ] in
  let routing = Floorplan.routing fp in
  Alcotest.(check int) "abutted" 1 routing.Router.abutted_nets;
  Alcotest.(check int) "no wires" 0 routing.Router.wirelength

let test_router_l_routes () =
  (* disconnected pins need routing; wirelength >= manhattan distance *)
  let a = blk "a" 100 100 ~pins:[ pin "n" Port.North 10; pin "m" Port.South 10 ] in
  let b = blk "b" 60 40 ~pins:[ pin "n" Port.South 30; pin "m" Port.North 30 ] in
  let fp = Floorplan.make rules [ a; b ] in
  let routing = Floorplan.routing fp in
  Alcotest.(check int) "two nets routed" 2 routing.Router.routed_nets;
  Alcotest.(check bool) "wirelength positive" true (routing.Router.wirelength > 0)

let test_floorplan_render () =
  let fp =
    Floorplan.make rules [ blk "ARRAY" 400 300; blk "DEC" 80 300; blk "IO" 480 60 ]
  in
  let art = Floorplan.render ~width:60 fp in
  Alcotest.(check bool) "mentions blocks" true
    (let has sub =
       let n = String.length art and m = String.length sub in
       let rec go i =
         i + m <= n && (String.sub art i m = sub || go (i + 1))
       in
       go 0
     in
     has "ARRAY" && has "DEC");
  Alcotest.(check bool) "multi-line" true (String.contains art '\n')

let test_epsilon_near_optimal () =
  (* the paper's provably-(1+eps)-optimal claim: for well-matched block
     sets epsilon stays small *)
  let blocks =
    [ blk "a" 300 200; blk "b" 300 100; blk "c" 150 100; blk "d" 150 100 ]
  in
  let fp = Floorplan.make rules blocks in
  Alcotest.(check bool)
    (Printf.sprintf "epsilon %.3f < 0.35" (Floorplan.epsilon fp))
    true
    (Floorplan.epsilon fp < 0.35)

let prop_placement_never_overlaps =
  QCheck.Test.make ~name:"random block sets never overlap" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 20 300) (int_range 20 300)))
    (fun sizes ->
      let blocks = List.mapi (fun i (w, h) -> blk (Printf.sprintf "b%d" i) w h) sizes in
      no_overlaps (Placer.place blocks))

let prop_rectangularity_bounds =
  QCheck.Test.make ~name:"rectangularity in (0,1]" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 20 300) (int_range 20 300)))
    (fun sizes ->
      let blocks = List.mapi (fun i (w, h) -> blk (Printf.sprintf "b%d" i) w h) sizes in
      let r = Placer.place blocks in
      r.Placer.rectangularity > 0.0 && r.Placer.rectangularity <= 1.0 +. 1e-9)

let () =
  Alcotest.run "place_route"
    [ ( "block",
        [ Alcotest.test_case "validation" `Quick test_block_validation ] )
    ; ( "placer",
        [ Alcotest.test_case "single" `Quick test_single_block
        ; Alcotest.test_case "two blocks" `Quick test_two_blocks_no_overlap
        ; Alcotest.test_case "many blocks" `Quick test_many_blocks_rectangular
        ; Alcotest.test_case "port alignment" `Quick
            test_port_alignment_pulls_together
        ; Alcotest.test_case "stretching" `Quick test_stretching_matches_edges
        ; Alcotest.test_case "hpwl" `Quick test_hpwl_lower_with_connection
        ; QCheck_alcotest.to_alcotest prop_placement_never_overlaps
        ; QCheck_alcotest.to_alcotest prop_rectangularity_bounds
        ] )
    ; ( "router",
        [ Alcotest.test_case "abutment free" `Quick test_router_abutted_nets_free
        ; Alcotest.test_case "l-routes" `Quick test_router_l_routes
        ] )
    ; ( "floorplan",
        [ Alcotest.test_case "render" `Quick test_floorplan_render
        ; Alcotest.test_case "epsilon" `Quick test_epsilon_near_optimal
        ] )
    ]
