module Tbl = Hashtbl.Make (String)

type 'a slot = Computing | Done of 'a

type 'a t = {
  lock : Mutex.t;
  settled : Condition.t;  (** broadcast whenever a [Computing] slot settles *)
  slots : 'a slot Tbl.t;  (** guarded by [lock] *)
}

let create () =
  { lock = Mutex.create (); settled = Condition.create (); slots = Tbl.create 64 }

let claim t key =
  Mutex.protect t.lock (fun () ->
      let rec go () =
        match Tbl.find_opt t.slots key with
        | Some (Done v) -> Some v
        | Some Computing ->
            Condition.wait t.settled t.lock;
            go ()
        | None ->
            Tbl.replace t.slots key Computing;
            None
      in
      go ())

let settle t key slot =
  Mutex.protect t.lock (fun () ->
      (match slot with
      | Some v -> Tbl.replace t.slots key (Done v)
      | None -> Tbl.remove t.slots key);
      Condition.broadcast t.settled)

let fill t key f =
  match f () with
  | v ->
      settle t key (Some v);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle t key None;
      Printexc.raise_with_backtrace e bt

let remove t key = Mutex.protect t.lock (fun () -> Tbl.remove t.slots key)
