//! RFC 3597 totality, over every one of the 65 536 codes: a type, class
//! or SvcParamKey the crate models maps back to its own code and
//! mnemonic, and one it does not survives as an opaque value — in the
//! registries, in presentation form, and through a whole message.

use dns_wire::svcb::{key_to_name, name_to_key};
use dns_wire::{DnsClass, DnsName, Message, RData, Record, RecordType};

#[test]
fn every_record_type_code_round_trips() {
    for c in 0..=u16::MAX {
        let t = RecordType::from_code(c);
        assert_eq!(t.code(), c);
        assert_eq!(RecordType::from_mnemonic(&t.mnemonic()), Some(t), "{t}");
    }
}

#[test]
fn every_class_code_round_trips() {
    for c in 0..=u16::MAX {
        let class = DnsClass::from_code(c);
        assert_eq!(class.code(), c);
        assert_eq!(DnsClass::from_mnemonic(&class.to_string()), Some(class), "{class}");
    }
}

#[test]
fn every_svcparam_key_round_trips_through_its_name() {
    for k in 0..=u16::MAX {
        assert_eq!(name_to_key(&key_to_name(k)), Some(k), "{}", key_to_name(k));
    }
}

#[test]
fn an_opaque_record_of_every_unknown_type_survives_a_message() {
    let owner = DnsName::parse("opaque.example").unwrap();
    let mut unknown = 0;
    for c in 0..=u16::MAX {
        let rtype = RecordType::from_code(c);
        if !matches!(rtype, RecordType::Unknown(_)) {
            continue;
        }
        unknown += 1;
        let record = Record {
            class: DnsClass::from_code(c),
            ..Record::with_type(owner.clone(), rtype, 60, RData::Unknown(c.to_be_bytes().to_vec()))
        };
        let mut msg = Message::query(c, owner.clone(), rtype).response();
        msg.answers.push(record);
        assert_eq!(Message::decode(&msg.encode()), Ok(msg), "{rtype}");
    }
    // Sixteen types are modelled; OPT is one of them.
    assert_eq!(unknown, 65_536 - 16);
}
