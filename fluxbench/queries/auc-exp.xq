<expensive>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction where $a/price > 400 return <hit>{$a/itemref}{$a/price}</hit> }</expensive>
