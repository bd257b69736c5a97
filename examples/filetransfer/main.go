// Filetransfer: move real bytes over real UDP sockets on loopback using the
// PCC transport (internal/transport) — the same controller that drives the
// simulations, pacing a genuine network flow (§2.3: deployable today as a
// user-space transport).
//
//	go run ./examples/filetransfer
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"pcc/internal/core"
	"pcc/internal/transport"
)

func main() {
	const size = 2 << 20 // 2 MiB
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)

	recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer recvConn.Close()
	sendConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer sendConn.Close()

	var out bytes.Buffer
	recv := transport.NewReceiver(recvConn, &out)
	go recv.Run()

	cfg := core.DefaultConfig(0.001) // loopback RTT hint
	sender, err := transport.NewSender(sendConn, recvConn.LocalAddr().(*net.UDPAddr), cfg, bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	runErr := make(chan error, 1)
	go func() { runErr <- sender.Run() }()
	// Run returns nil only once the FIN is confirmed, so any error means the
	// transfer failed (say, a *transport.RetryExceededError) and Done or
	// the receiver's FIN may never come.
	fail := func(err error) {
		if err != nil {
			log.Fatalf("filetransfer: %v", err)
		}
	}
	select {
	case err := <-runErr:
		fail(err)
	case <-sender.Done():
	}
	select {
	case err := <-runErr:
		fail(err)
		<-recv.Done()
	case <-recv.Done():
	}
	elapsed := time.Since(start)

	sent, rtx := sender.Stats()
	ok := bytes.Equal(out.Bytes(), data)
	fmt.Printf("transferred %d bytes over loopback UDP in %.3f s (%.1f Mbps)\n",
		size, elapsed.Seconds(), float64(size)*8/1e6/elapsed.Seconds())
	fmt.Printf("packets sent: %d, retransmitted: %d, payload intact: %v\n", sent, rtx, ok)
}
