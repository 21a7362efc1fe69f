(** Sawada et al.'s 1989 built-in self-repair scheme (Section III).

    The original address-comparison method: during test mode a single
    failing word address is stored in the fail-address register; during
    normal mode every incoming address is compared against it, and a
    match diverts the access to one spare word.  Only one faulty
    address location can be registered, so any pattern with two or more
    faulty words is unrepairable. *)

type t

val create : Bisram_sram.Org.t -> t

(** Record a failing word address; [`Full] once one is registered and a
    different address fails. *)
val record : t -> addr:int -> [ `Ok | `Full ]

val registered : t -> int option

(** Two-pass test-and-repair flow with this scheme. *)
val repair :
  Bisram_sram.Model.t ->
  Bisram_bist.March.t ->
  backgrounds:Bisram_sram.Word.t list ->
  [ `Passed_clean | `Repaired of int | `Unsuccessful ]

(** Static repairability: at most one faulty word (spare assumed good
    unless a fault hits it — the spare is one extra word). *)
val repairable : Bisram_sram.Org.t -> Bisram_faults.Fault.t list -> bool
