//! Gao–Rexford routing policies.
//!
//! The simulator applies the standard economic model of inter-domain routing:
//!
//! * **Preference**: routes learned from customers are preferred over routes
//!   learned from peers, which are preferred over routes learned from
//!   providers (valley-free economics: customers pay you, providers charge
//!   you).
//! * **Export**: a route learned from a customer (or originated locally) may be
//!   exported to everyone; a route learned from a peer or provider may only be
//!   exported to customers.
//!
//! Together these rules guarantee convergence of the propagation engine and
//! produce the "information hiding" the paper describes in §2.1.1: ASes such as
//! AS 5 in Fig. 1 do not learn (and therefore cannot immediately fall back to)
//! alternate paths for every destination.

use crate::topology::Relationship;

/// LOCAL_PREF assigned to a route according to the relationship with the
/// neighbour it was learned from. Locally-originated routes use
/// [`LOCAL_ORIGIN_PREF`].
pub(crate) fn local_pref(learned_from: Relationship) -> u32 {
    match learned_from {
        Relationship::Customer => 200,
        Relationship::Peer => 100,
        Relationship::Provider => 50,
    }
}

/// Gao–Rexford export rule.
///
/// `learned_from` is the relationship with the neighbour the best route was
/// learned from (`None` for locally-originated routes); `to` is the
/// relationship with the neighbour the route would be exported to. Returns
/// `true` if the export is allowed.
pub(crate) fn can_export(learned_from: Option<Relationship>, to: Relationship) -> bool {
    match learned_from {
        // Own routes and customer routes go to everyone.
        None | Some(Relationship::Customer) => true,
        // Peer and provider routes only go to customers.
        Some(Relationship::Peer) | Some(Relationship::Provider) => to == Relationship::Customer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Relationship::*;

    #[test]
    fn preference_order_is_customer_peer_provider() {
        assert!(local_pref(Customer) > local_pref(Peer));
        assert!(local_pref(Peer) > local_pref(Provider));
    }

    #[test]
    fn own_and_customer_routes_export_everywhere() {
        for to in [Customer, Peer, Provider] {
            assert!(can_export(None, to));
            assert!(can_export(Some(Customer), to));
        }
    }

    #[test]
    fn peer_and_provider_routes_only_export_to_customers() {
        for learned in [Peer, Provider] {
            assert!(can_export(Some(learned), Customer));
            assert!(!can_export(Some(learned), Peer));
            assert!(!can_export(Some(learned), Provider));
        }
    }

    #[test]
    fn valley_free_property_holds() {
        // A path that goes down (to a customer) can never go back up: once a
        // route has been learned from a peer or provider it is only exported
        // downhill, so a provider→customer→provider "valley" is impossible.
        // Expressed with the export predicate: an AS that learned the route
        // from its provider cannot export it to another provider or peer.
        assert!(!can_export(Some(Provider), Provider));
        assert!(!can_export(Some(Provider), Peer));
        assert!(!can_export(Some(Peer), Provider));
    }
}
