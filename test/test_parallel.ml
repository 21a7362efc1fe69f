(* Tests for the domain-pool scheduler and the monotonic clock. *)

module Pool = Bisram_parallel.Pool
module Clock = Bisram_parallel.Clock

(* the values of the completed slots, in index order *)
let completed r =
  Array.to_list r
  |> List.filter_map (function
       | Some { Pool.outcome = Ok v; _ } -> Some v
       | Some { Pool.outcome = Error _; _ } ->
           Alcotest.fail "unexpected failure"
       | None -> None)

(* ------------------------------------------------------------------ *)
(* pool *)

let test_empty_input () =
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        "no slots" 0
        (Array.length (Pool.map_result ~jobs 0 (fun i -> i))))
    [ 1; 4 ]

let test_one_item () =
  Alcotest.(check (list int))
    "single result" [ 10 ]
    (completed (Pool.map_result ~jobs:4 1 (fun i -> (i + 1) * 10)))

let test_more_items_than_workers () =
  (* 57 items claimed one at a time by 3 workers *)
  Alcotest.(check (list int))
    "every slot filled, in index order"
    (List.init 57 (fun i -> i * i))
    (completed (Pool.map_result ~jobs:3 57 (fun i -> i * i)))

let test_sequential_runs_in_order () =
  let order = ref [] in
  let r =
    Pool.map_result 5 (fun i ->
        order := i :: !order;
        i)
  in
  Alcotest.(check (list int))
    "caller domain, index order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order);
  Alcotest.(check (list int)) "results positional" [ 0; 1; 2; 3; 4 ]
    (completed r)

let test_parallel_matches_sequential () =
  let f i = (i * 37) mod 11 in
  let seq = Pool.map_result 100 f in
  let par = Pool.map_result ~jobs:4 100 f in
  Alcotest.(check (list int)) "same results any job count" (completed seq)
    (completed par)

exception Boom of int

let test_should_stop_prefix () =
  (* one worker: the poll sequence is deterministic, so stopping after
     the 7th poll completes exactly the 7-trial prefix *)
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 7
  in
  let r = Pool.map_result ~jobs:1 ~should_stop:stop 50 (fun i -> i) in
  Alcotest.(check (list int)) "exact prefix" [ 0; 1; 2; 3; 4; 5; 6 ]
    (completed r)

let test_should_stop_parallel_halts () =
  let stop () = true in
  let r = Pool.map_result ~jobs:4 50 ~should_stop:stop (fun i -> i) in
  Alcotest.(check (list int)) "nothing ran" [] (completed r)

let test_validation () =
  let bad f =
    Alcotest.(check bool) "rejected" true
      (match f () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  bad (fun () -> Pool.map_result ~jobs:0 3 (fun i -> i));
  bad (fun () -> Pool.map_result (-1) (fun i -> i))

let prop_pool_positional =
  QCheck.Test.make ~name:"pool results are positional at any jobs count"
    ~count:60
    QCheck.(pair (int_range 0 64) (int_range 1 6))
    (fun (n, jobs) ->
      let r = Pool.map_result ~jobs n (fun i -> i * 3) in
      Array.length r = n && completed r = List.init n (fun i -> i * 3))

(* ------------------------------------------------------------------ *)
(* supervised pool *)

let test_supervised_captures_failure () =
  List.iter
    (fun jobs ->
      let r =
        Pool.map_result ~jobs 20 (fun i ->
            if i = 13 then raise (Boom i) else i)
      in
      (* no deadlock, every other item completed *)
      Alcotest.(check int) "every slot filled" 20
        (Array.length (Array.to_list r |> List.filter Option.is_some |> Array.of_list));
      Array.iteri
        (fun i slot ->
          match slot with
          | None -> Alcotest.fail "unexpected empty slot"
          | Some jr -> (
              match (i, jr.Pool.outcome) with
              | 13, Error f ->
                  Alcotest.(check bool) "original exception" true
                    (f.Pool.f_exn = Boom 13);
                  Alcotest.(check bool) "not transient" false f.Pool.f_transient;
                  Alcotest.(check int) "single attempt" 1 jr.Pool.attempts
              | 13, Ok _ -> Alcotest.fail "index 13 should have failed"
              | _, Ok v -> Alcotest.(check int) "value" i v
              | _, Error _ -> Alcotest.fail "only index 13 should fail"))
        r)
    [ 1; 4 ]

let test_transient_retried () =
  (* fails on attempts 1 and 2, succeeds on 3: absorbed by the pool's
     2 retries *)
  let r =
    Pool.map_result ~jobs:2 6 (fun i ->
        if i = 4 && Pool.current_attempt () < 3 then
          raise (Pool.Transient (Boom i))
        else (i, Pool.current_attempt ()))
  in
  match r.(4) with
  | Some { Pool.outcome = Ok (4, 3); attempts = 3 } -> ()
  | _ -> Alcotest.fail "expected success on the third attempt"

let test_on_retry_seam () =
  (* on_retry fires once per re-attempt, before it, with the attempt
     number that just raised — and not at all for items that never
     raise *)
  let mu = Mutex.create () in
  let seen = ref [] in
  let on_retry i ~attempt e =
    Mutex.lock mu;
    seen := (i, attempt, e) :: !seen;
    Mutex.unlock mu
  in
  let r =
    Pool.map_result ~jobs:2 ~on_retry 6 (fun i ->
        if i = 4 && Pool.current_attempt () < 3 then
          raise (Pool.Transient (Boom i))
        else i)
  in
  (match r.(4) with
  | Some { Pool.outcome = Ok 4; attempts = 3 } -> ()
  | _ -> Alcotest.fail "expected success on the third attempt");
  let calls = List.sort compare !seen in
  Alcotest.(check (list (pair int int)))
    "one call per re-attempt, attempt = the one that raised"
    [ (4, 1); (4, 2) ]
    (List.map (fun (i, a, _) -> (i, a)) calls);
  List.iter
    (fun (_, _, e) ->
      Alcotest.(check bool) "original exception, wrapper stripped" true
        (e = Boom 4))
    calls

let test_transient_exhausted () =
  (* always transient: the first attempt and both retries fail *)
  let r =
    Pool.map_result ~jobs:1 3 (fun i ->
        if i = 1 then raise (Pool.Transient (Boom i)) else i)
  in
  match r.(1) with
  | Some { Pool.outcome = Error f; attempts = 3 } ->
      Alcotest.(check bool) "transient flag set" true f.Pool.f_transient;
      Alcotest.(check bool) "wrapper stripped" true (f.Pool.f_exn = Boom 1)
  | _ -> Alcotest.fail "expected exhausted retries as a transient failure"

let test_nontransient_not_retried () =
  let calls = Atomic.make 0 in
  let r =
    Pool.map_result ~jobs:1 1 (fun i ->
        Atomic.incr calls;
        raise (Boom i))
  in
  Alcotest.(check int) "no retry of a plain raise" 1 (Atomic.get calls);
  match r.(0) with
  | Some { Pool.outcome = Error _; attempts = 1 } -> ()
  | _ -> Alcotest.fail "expected one failed attempt"

let test_deadline_cooperative () =
  (* a 1 ns deadline armed inside a polling item: the poll raises, the
     pool records Deadline_exceeded in that item's slot, other items
     complete, and the deadline is disarmed once its call is over *)
  let r =
    Pool.map_result ~jobs:2 4 (fun i ->
        if i = 2 then begin
          (try
             Pool.with_deadline (Option.get (Pool.deadline 1e-9)) (fun () ->
                 (* the deadline has passed by the first poll *)
                 while true do
                   Pool.check_deadline ()
                 done)
           with Pool.Deadline_exceeded as e ->
             Pool.check_deadline ();
             raise e);
          assert false
        end
        else i)
  in
  (match r.(2) with
  | Some { Pool.outcome = Error f; _ } ->
      Alcotest.(check bool) "deadline exception" true
        (f.Pool.f_exn = Pool.Deadline_exceeded)
  | _ -> Alcotest.fail "expected a deadline failure");
  List.iter
    (fun i ->
      match r.(i) with
      | Some { Pool.outcome = Ok v; _ } -> Alcotest.(check int) "value" i v
      | _ -> Alcotest.fail "other items must complete")
    [ 0; 1; 3 ]

let test_check_deadline_noop_without_deadline () =
  (* outside with_deadline the poll never raises; a deadline too far
     ahead to represent saturates instead of wrapping into the past;
     a non-finite or non-positive one is refused *)
  Pool.check_deadline ();
  let r = Pool.map_result ~jobs:1 2 (fun i -> Pool.check_deadline (); i) in
  Alcotest.(check bool) "completed" true
    (Array.for_all Option.is_some r);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "%g s never expires" s)
        7
        (Pool.with_deadline (Option.get (Pool.deadline s)) (fun () ->
             Pool.check_deadline ();
             7)))
    [ 60.0; 1e10; 1e300; Float.max_float ];
  List.iter
    (fun s ->
      if Option.is_some (Pool.deadline s) then
        Alcotest.failf "%g s accepted" s)
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_on_result_sees_every_completion () =
  let seen = Atomic.make [] in
  let rec push x =
    let old = Atomic.get seen in
    if not (Atomic.compare_and_set seen old (x :: old)) then push x
  in
  let n = 30 in
  let r =
    Pool.map_result ~jobs:3
      ~on_result:(fun i jr ->
        push (i, match jr.Pool.outcome with Ok v -> v | Error _ -> -1))
      n
      (fun i -> if i = 7 then raise (Boom i) else i * 2)
  in
  Alcotest.(check int) "slots" n (Array.length r);
  let got = List.sort compare (Atomic.get seen) in
  let want =
    List.init n (fun i -> (i, if i = 7 then -1 else i * 2))
  in
  Alcotest.(check bool) "hook saw every item with its result" true
    (got = want)

let prop_supervised_deterministic =
  QCheck.Test.make
    ~name:"supervised results identical at any jobs, failures isolated"
    ~count:40
    QCheck.(pair (int_range 1 40) (int_range 1 5))
    (fun (n, jobs) ->
      let f i = if i mod 5 = 3 then raise (Boom i) else i * 7 in
      let project r =
        Array.map
          (function
            | Some { Pool.outcome = Ok v; _ } -> `Ok v
            | Some { Pool.outcome = Error fl; _ } -> `Err fl.Pool.f_exn
            | None -> `Empty)
          r
      in
      let seq = project (Pool.map_result ~jobs:1 n f) in
      let par = project (Pool.map_result ~jobs n f) in
      seq = par
      && Array.to_list seq
         |> List.mapi (fun i s -> (i, s))
         |> List.for_all (fun (i, s) ->
                if i mod 5 = 3 then s = `Err (Boom i) else s = `Ok (i * 7)))

(* ------------------------------------------------------------------ *)
(* clock *)

let test_clock_monotonic () =
  let a = Clock.now () in
  let b = Clock.now () in
  let c = Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (a <= b && b <= c)

let test_clock_ns_scale () =
  let a = Clock.now_ns () in
  let fa = Clock.now () in
  (* the float view is the ns counter in seconds *)
  Alcotest.(check bool) "same origin and scale" true
    (fa >= Int64.to_float a /. 1e9)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [ ( "pool"
      , [ Alcotest.test_case "empty input" `Quick test_empty_input
        ; Alcotest.test_case "one item" `Quick test_one_item
        ; Alcotest.test_case "more items than workers" `Quick
            test_more_items_than_workers
        ; Alcotest.test_case "sequential order" `Quick
            test_sequential_runs_in_order
        ; Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential
        ; Alcotest.test_case "should_stop prefix (sequential)" `Quick
            test_should_stop_prefix
        ; Alcotest.test_case "should_stop halts workers" `Quick
            test_should_stop_parallel_halts
        ; Alcotest.test_case "argument validation" `Quick test_validation
        ; QCheck_alcotest.to_alcotest prop_pool_positional
        ] )
    ; ( "supervised"
      , [ Alcotest.test_case "failure captured, no deadlock" `Quick
            test_supervised_captures_failure
        ; Alcotest.test_case "transient retried" `Quick test_transient_retried
        ; Alcotest.test_case "on_retry seam" `Quick test_on_retry_seam
        ; Alcotest.test_case "transient exhausted" `Quick
            test_transient_exhausted
        ; Alcotest.test_case "non-transient not retried" `Quick
            test_nontransient_not_retried
        ; Alcotest.test_case "cooperative deadline" `Quick
            test_deadline_cooperative
        ; Alcotest.test_case "check_deadline no-op without deadline" `Quick
            test_check_deadline_noop_without_deadline
        ; Alcotest.test_case "on_result sees every completion" `Quick
            test_on_result_sees_every_completion
        ; QCheck_alcotest.to_alcotest prop_supervised_deterministic
        ] )
    ; ( "clock"
      , [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic
        ; Alcotest.test_case "ns scale" `Quick test_clock_ns_scale
        ] )
    ]
