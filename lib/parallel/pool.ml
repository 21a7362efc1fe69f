let recommended_jobs () = Domain.recommended_domain_count ()

type probe = worker:int -> busy_ns:int64 -> total_ns:int64 -> items:int -> unit

exception Transient of exn
exception Deadline_exceeded

type failure = {
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_transient : bool;
}

type 'a job_result = { outcome : ('a, failure) result; attempts : int }

let retries = 2

(* ------------------------------------------------------------------ *)
(* per-worker job context: the running attempt number and the
   cooperative deadline armed by [with_deadline], both domain-local so
   concurrently running items never observe each other's context *)

let attempt_key = Domain.DLS.new_key (fun () -> 1)
let deadline_key : int64 option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_attempt () = Domain.DLS.get attempt_key

let check_deadline () =
  match Domain.DLS.get deadline_key with
  | Some d when Clock.now_ns () > d -> raise Deadline_exceeded
  | _ -> ()

type deadline = float

let deadline seconds =
  if Float.is_finite seconds && seconds > 0.0 then Some seconds else None

(* A span past 2^62 ns (146 years) saturates: the clock reads below
   2^62 too, so the sum never wraps and the deadline never expires. *)
let with_deadline seconds f =
  let ns = seconds *. 1e9 in
  let outer = Domain.DLS.get deadline_key in
  Domain.DLS.set deadline_key
    (Some
       (if ns >= 0x1p62 then Int64.max_int
        else Int64.add (Clock.now_ns ()) (Int64.of_float ns)));
  Fun.protect ~finally:(fun () -> Domain.DLS.set deadline_key outer) f

(* ------------------------------------------------------------------ *)
(* the scheduler

   A raising item fails alone: the failure is captured (with backtrace
   and attempt count) into the item's own slot after [retries] re-runs
   of [Transient]-flagged raises, and every other item keeps running.
   Every spawned domain is joined before returning, so a raising worker
   can never deadlock the pool or leak a domain. *)

let map_result ?(jobs = 1) ?(should_stop = fun () -> false) ?probe
    ?on_result ?on_retry n f =
  if jobs < 1 then invalid_arg "Pool.map_result: jobs must be >= 1";
  if n < 0 then invalid_arg "Pool.map_result: negative length";
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let stopped = Atomic.make false in
  let probing = probe <> None in
  let rec attempt i k =
    Domain.DLS.set attempt_key k;
    match f i with
    | v -> { outcome = Ok v; attempts = k }
    | exception Transient e when k <= retries ->
        (* fires on the raising worker, before the re-attempt: the
           observability layer logs the retry while the failure is
           still current *)
        (match on_retry with None -> () | Some h -> h i ~attempt:k e);
        attempt i (k + 1)
    | exception e ->
        let f_backtrace = Printexc.get_raw_backtrace () in
        let f_transient, f_exn =
          match e with Transient e' -> (true, e') | e -> (false, e)
        in
        { outcome = Error { f_exn; f_backtrace; f_transient }; attempts = k }
  in
  let worker widx () =
    let t_start = if probing then Clock.now_ns () else 0L in
    let busy = ref 0L in
    let items = ref 0 in
    let continue = ref true in
    while !continue do
      let i = if Atomic.get stopped then n else Atomic.fetch_and_add next 1 in
      if i >= n then continue := false
      else if should_stop () then begin
        Atomic.set stopped true;
        continue := false
      end
      else begin
        let t0 = if probing then Clock.now_ns () else 0L in
        let r = attempt i 1 in
        Domain.DLS.set attempt_key 1;
        results.(i) <- Some r;
        incr items;
        (* runs on the completing worker with the result it just
           produced (no cross-domain read): the campaign's
           mutex-guarded fold is fed from here *)
        (match on_result with None -> () | Some h -> h i r);
        if probing then
          busy := Int64.add !busy (Int64.sub (Clock.now_ns ()) t0)
      end
    done;
    match probe with
    | None -> ()
    | Some p ->
        (* runs on the worker's own domain, before the join: a probe
           writing to domain-local telemetry shards stays race-free *)
        p ~worker:widx ~busy_ns:!busy
          ~total_ns:(Int64.sub (Clock.now_ns ()) t_start)
          ~items:!items
  in
  (* never spawn more helpers than there are items left to hand out *)
  let helpers =
    List.init
      (min (jobs - 1) (max 0 (n - 1)))
      (fun i -> Domain.spawn (worker (i + 1)))
  in
  worker 0 ();
  List.iter Domain.join helpers;
  results

(* Lane-batch decomposition: the leading [items / width] pool items
   cover [width] consecutive indices each, the ragged tail degrades to
   single-index items so its chaos/retry/checkpoint granularity equals
   the unbatched scheduler's.  With [width = 1] this is the identity
   decomposition (one item per index). *)
let batch_ranges ~items ~width =
  if items < 0 then invalid_arg "Pool.batch_ranges: negative items";
  if width < 1 then invalid_arg "Pool.batch_ranges: width must be >= 1";
  let full = if width > 1 then items / width else 0 in
  let tail = items - (full * width) in
  Array.init (full + tail) (fun u ->
      if u < full then (u * width, width) else ((full * width) + u - full, 1))
